"""The one-pass grid evaluator against the per-point reference kernels.

estimate_grid samples each trial once and scores every (silencing radius,
policy) point from that realization. Its counts must equal, trial for
trial, what build_network + apply_policy + uplink_trial / downlink_trial
give when each point is scored on its own.
"""
import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import disaster_station, silencing_station, snapshot_from_stations, trial_rows
from disastersim import netsim
from disastersim.channel import ChannelParams, path_gain
from disastersim.geometry import Annulus
from disastersim.netsim import (
    STREAM_DOWNLINK,
    STREAM_EXTERIOR,
    STREAM_GEOMETRY,
    STREAM_UPLINK,
    AerialTier,
    ScenarioConfig,
    ScenarioError,
    SilencingPolicy,
    apply_policy,
    build_network,
    downlink_sinr,
    downlink_trial,
    estimate_grid,
    trial_rng,
    uplink_sinr,
    uplink_trial,
)
from disastersim.planner import SweepGrid, sweep

POLICIES = (
    SilencingPolicy.none(),
    SilencingPolicy.partial(0.4),
    SilencingPolicy.complete(),
    SilencingPolicy.spectrum_split(),
    SilencingPolicy.partial(0.0),
    SilencingPolicy.partial(1.0),
)


@functools.cache
def reference_counts(cfg: ScenarioConfig, radii, policies) -> np.ndarray:
    """[radius, policy, (up successes, up holes, down successes, down holes)],
    each point scored on its own realization with the reference kernels.
    Cached, so each worker count of a test is checked against one oracle
    run; the counts are read-only, since every caller shares them."""
    counts = np.zeros((len(radii), len(policies), 4), dtype=np.int64)
    for t in range(cfg.n_trials):
        for k, r_s in enumerate(radii):
            cfg_k = dataclasses.replace(cfg, silencing_radius=r_s)
            net = build_network(cfg_k, t)
            for j, policy in enumerate(policies):
                policied = apply_policy(net, policy)
                up = uplink_trial(policied, cfg_k, trial_rng(cfg.master_seed, t, STREAM_UPLINK))
                down = downlink_trial(policied, cfg_k, policy, trial_rng(cfg.master_seed, t, STREAM_DOWNLINK))
                counts[k, j] += (up.success, up.coverage_hole, down.success, down.coverage_hole)
    counts.setflags(write=False)
    return counts


def assert_grid_matches(cfg, radii, policies, workers):
    expected = reference_counts(cfg, radii, policies)
    grid = estimate_grid(cfg, radii, policies, workers)
    n = cfg.n_trials
    for k in range(len(radii)):
        for j in range(len(policies)):
            up, down = grid[k][j]
            s_up, h_up, s_down, h_down = (int(c) for c in expected[k, j])
            assert (up.value, up.n_coverage_holes) == (s_up / n, h_up), (radii[k], policies[j])
            assert (down.value, down.n_coverage_holes) == (s_down / n, h_down), (radii[k], policies[j])
    return expected


def base_cfg(**overrides):
    base = dict(
        bs_density=1e-6,
        bs_survival_prob=0.5,
        device_tx_power=1.0,
        bs_tx_power=1.0,
        silencing_radius=9000.0,
        sim_radius=14000.0,
        channel=ChannelParams(path_loss_exponent=3.5, sinr_threshold=0.1),
        n_trials=40,
        master_seed=2024,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_grid_equals_per_point_reference(workers):
    # 3 x 64 trials: every worker count here forks its full pool
    cfg = base_cfg(channel=ChannelParams(path_loss_exponent=3.5, sinr_threshold=0.3, noise_power=1e-14), n_trials=192)
    radii = (4000.0, 9000.0, 14000.0)  # 14000 = sim_radius: no outer stations
    expected = assert_grid_matches(cfg, radii, POLICIES, workers)
    # the grid is not degenerate: policies and radii actually move the counts
    assert len({int(c) for c in expected[:, :, 0].ravel()}) > 2
    assert len({int(c) for c in expected[:, :, 2].ravel()}) > 2


def test_grid_equals_reference_with_aerial_tier():
    cfg = base_cfg(aerial=AerialTier(density=2e-6, altitude=300.0, tx_power=0.5), n_trials=30)
    assert_grid_matches(cfg, (5000.0, 9000.0), POLICIES, workers=1)


def test_grid_equals_reference_with_coverage_holes():
    # No station survives in the disaster disk and the ring is often empty,
    # so the uplink has coverage holes; spectrum_split leaves downlink users
    # without a server whenever the silencing zone is empty.
    cfg = base_cfg(bs_density=2e-7, bs_survival_prob=0.0, n_trials=128)  # enough for a pool of 2
    expected = assert_grid_matches(cfg, (3500.0, 9000.0), POLICIES, workers=2)
    assert expected[:, :, 1].min() > 0
    assert expected[0, 3, 3] > 0


def test_grid_equals_reference_without_outer_stations():
    cfg = base_cfg(silencing_radius=14000.0, sim_radius=14000.0, n_trials=30)
    assert_grid_matches(cfg, (14000.0,), POLICIES, workers=1)


def test_grid_equals_reference_with_silent_stations():
    # Zero station power: every downlink signal is 0, so with no noise every
    # silencing-area user is a coverage hole. Every uplink succeeds while the
    # device transmits; a silent device makes 0 / (0 + 0), and that trial is
    # a hole on the uplink too.
    silent_device = ScenarioConfig(device_tx_power=0.0, bs_tx_power=0.0, n_trials=200, bs_density=1e-6,
                                   master_seed=1)
    for cfg in (base_cfg(bs_tx_power=0.0, n_trials=20), silent_device):
        expected = assert_grid_matches(cfg, (6000.0,), POLICIES, workers=1)
        n = cfg.n_trials
        up = n if cfg.device_tx_power > 0.0 else 0
        assert np.all(expected[:, :, 0] == up)
        assert np.all(expected[:, :, 1] == n - up)
        assert np.all(expected[:, :, 3] == n)


DENSE = tuple(SilencingPolicy.partial(rho) for rho in np.linspace(0.0, 1.0, 11)) + (
    SilencingPolicy.complete(),
    SilencingPolicy.spectrum_split(),
)


@pytest.mark.parametrize("aerial", [None, AerialTier(density=1e-6, altitude=300.0, tx_power=0.02)])
def test_grid_equals_reference_on_dense_rho_grid(aerial):
    # every factor is scored from the same two grouped sums per radius; the
    # kernels group theirs the same way, so the counts agree trial for trial
    cfg = base_cfg(aerial=aerial, n_trials=24, master_seed=13,
                   channel=ChannelParams(path_loss_exponent=3.5, sinr_threshold=0.3, noise_power=1e-14))
    expected = assert_grid_matches(cfg, (5000.0, 9000.0), DENSE, workers=1)
    assert len({int(c) for c in expected[:, :11, 0].ravel()}) > 2
    assert len({int(c) for c in expected[:, :11, 2].ravel()}) > 2


def count_sums(monkeypatch, cfg, radii, rhos) -> int:
    calls = []
    original = netsim._sums

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(netsim, "_sums", counting)
    estimate_grid(cfg, radii, [SilencingPolicy.partial(rho) for rho in rhos])
    monkeypatch.undo()
    return len(calls)


def test_sums_do_not_grow_with_the_rho_count(monkeypatch):
    # one block: per radius, one uplink call serves every rho, and one
    # downlink call each for the rho > 0 server and the rho = 0 server
    cfg = base_cfg(n_trials=netsim._BLOCK)
    radii = (5000.0, 9000.0, 14000.0)
    two = count_sums(monkeypatch, cfg, radii, (0.0, 1.0))
    eleven = count_sums(monkeypatch, cfg, radii, np.linspace(0.0, 1.0, 11))
    assert two == eleven == 3 * len(radii)


def test_silencing_zone_factors_must_agree():
    net = snapshot_from_stations([
        disaster_station(100.0, 0.0),
        silencing_station(3000.0, 0.0, power_factor=0.5),
        silencing_station(-3000.0, 0.0, power_factor=0.25),
    ])
    cfg = base_cfg()
    with pytest.raises(ValueError, match="share one power factor"):
        uplink_sinr(net, cfg, 1.0, np.ones(3))
    with pytest.raises(ValueError, match="share one power factor"):
        downlink_sinr(net, cfg, np.zeros(2), netsim.Band.DISASTER_BAND, 1.0, np.ones(3))
    # one shared factor scales the silencing-zone sum: I_fix + f * I_sil
    net.power_factor[2] = 0.5
    pg = [path_gain(d, cfg.channel) for d in (100.0, 2900.0, 3100.0)]
    assert uplink_sinr(net, cfg, 1.0, np.ones(3)) == (pg[0] / (0.0 + 0.5 * (pg[1] + pg[2])), 0)


def test_grid_samples_each_trial_once(monkeypatch):
    calls = []
    original = netsim._sample_trial

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(netsim, "_sample_trial", counting)
    cfg = base_cfg(n_trials=25)
    sweep(cfg, SweepGrid((0.0, 0.5, 1.0), (4000.0, 9000.0)))
    assert len(calls) == 25


def test_empty_annulus_rejected_before_sampling(monkeypatch):
    def fail(*args):
        raise AssertionError("sampled a trial before validating the radii")

    monkeypatch.setattr(netsim, "_sample_trial", fail)
    cfg = base_cfg()
    with pytest.raises(ScenarioError) as err:
        sweep(cfg, SweepGrid((0.0, 1.0), (2600.0, 9000.0)))
    assert err.value.field == "silencing_radius"
    # the uplink alone checks the radius by the same rule
    with pytest.raises(ScenarioError) as err:
        estimate_grid(cfg, (2600.0,), (SilencingPolicy.none(),), downlink=False)
    assert err.value.field == "silencing_radius"


def test_empty_grid_rejected_before_sampling(monkeypatch):
    def fail(*args):
        raise AssertionError("sampled a trial for an empty grid")

    monkeypatch.setattr(netsim, "_sample_trial", fail)
    cfg = base_cfg()
    with pytest.raises(ValueError, match="radii must not be empty"):
        estimate_grid(cfg, (), (SilencingPolicy.none(),))
    with pytest.raises(ValueError, match="policies must not be empty"):
        estimate_grid(cfg, (9000.0,), ())


# ---------------------------------------------------------------------------
# the block engine: block edges, pool tasks, ties and empty trials
# ---------------------------------------------------------------------------

FOUR = POLICIES[:4]


# one short block, one full block, one block of 33, one of 63, two of 32
@pytest.mark.parametrize("n_trials", [netsim._BLOCK - 1, netsim._BLOCK, netsim._BLOCK + 1,
                                      2 * netsim._BLOCK - 1, 2 * netsim._BLOCK])
def test_grid_equals_reference_at_block_edges(n_trials):
    cfg = base_cfg(n_trials=n_trials, master_seed=77)
    assert_grid_matches(cfg, (5000.0, 9000.0), POLICIES, workers=1)


def test_grid_equals_reference_when_chunks_split_blocks():
    # 2 workers map runs of whole blocks; blocks cut anywhere else, and
    # edge lists split anywhere, sum to the same counts
    n = 2 * netsim._TRIALS_PER_WORKER + 24
    assert n % netsim._BLOCK
    cfg = base_cfg(n_trials=n, sim_radius=10000.0, master_seed=5)
    expected = assert_grid_matches(cfg, (9000.0,), FOUR, workers=2)
    edges = [0, netsim._BLOCK + 3, 3 * netsim._BLOCK - 5, n]
    assert np.array_equal(netsim._count_blocks(cfg, (9000.0,), FOUR, True, edges), expected)
    parts = [netsim._count_blocks(cfg, (9000.0,), FOUR, True, edges[:2]),
             netsim._count_blocks(cfg, (9000.0,), FOUR, True, edges[1:])]
    assert np.array_equal(sum(parts), expected)


def test_grid_equals_reference_with_empty_trials():
    # about one station per trial: many trials have none at all, which
    # makes empty segments inside and at the ends of blocks
    cfg = base_cfg(bs_density=2e-9, n_trials=2 * netsim._BLOCK + 5, master_seed=9)
    empty = [build_network(cfg, t).n_bs == 0 for t in range(cfg.n_trials)]
    assert sum(empty) >= 5 and not all(empty)
    assert_grid_matches(cfg, (5000.0, 9000.0), POLICIES, workers=1)


def test_grid_without_terrestrial_stations():
    # no station anywhere: every uplink and downlink trial is a hole
    cfg = base_cfg(bs_density=0.0, n_trials=netsim._BLOCK + 2)
    expected = assert_grid_matches(cfg, (9000.0,), FOUR, workers=1)
    assert np.all(expected[:, :, 1] == cfg.n_trials)
    assert np.all(expected[:, :, 3] == cfg.n_trials)
    # the aerial tier alone: stations exist, but none outside the disk
    aerial = dataclasses.replace(cfg, aerial=AerialTier(density=3e-7, altitude=200.0, tx_power=1.0))
    assert_grid_matches(aerial, (9000.0,), FOUR, workers=1)


def test_grid_without_aerial_tier_equals_an_empty_aerial_tier():
    # density 0 draws no aerial station, so both configurations have the
    # same realizations; a block without an aerial tier uses 2-D distances,
    # one with an aerial tier 3-D distances with every altitude 0.0
    cfg = base_cfg(n_trials=netsim._BLOCK + 7, master_seed=71)
    empty = dataclasses.replace(cfg, aerial=AerialTier(density=0.0, altitude=250.0, tx_power=0.3))
    blocks = [netsim._sample_block(c, netsim._StreamPool(c.master_seed), range(3), True) for c in (cfg, empty)]
    assert [block.flying for block in blocks] == [False, True]
    radii = (4000.0, 9000.0, 14000.0)
    grid = estimate_grid(cfg, radii, POLICIES)
    assert grid == estimate_grid(empty, radii, POLICIES)
    assert len({up.value for row in grid for up, _ in row}) > 2
    assert len({down.value for row in grid for _, down in row}) > 2


def test_block_size_changes_no_count(monkeypatch):
    # each trial is its own row of every block array, so how many trials a
    # block holds moves no count: 70 trials make 70 blocks of 1, six of
    # 11-12, three of 23-24, two of 35, or one of 70 (at 48 and at 64)
    cfg = base_cfg(bs_density=2e-7, bs_survival_prob=0.0, n_trials=70, master_seed=61,
                   aerial=AerialTier(density=5e-8, altitude=300.0, tx_power=0.5))
    radii = (3500.0, 9000.0, 14000.0)
    grids = []
    for block in (1, 7, 16, 32, 48, 64):
        monkeypatch.setattr(netsim, "_BLOCK", block)
        grids.append(estimate_grid(cfg, radii, POLICIES))
    assert all(grid == grids[0] for grid in grids[1:])
    # coverage holes on both links, and counts that move with the policy
    holes = [(up.n_coverage_holes, down.n_coverage_holes) for row in grids[0] for up, down in row]
    assert min(h for h, _ in holes) > 0 and max(h for _, h in holes) > 0
    assert len({up.value for row in grids[0] for up, _ in row}) > 2


def polar(r: np.ndarray, u_angle: np.ndarray) -> np.ndarray:
    theta = 2.0 * math.pi * u_angle
    return np.column_stack((r * np.cos(theta), r * np.sin(theta)))


def replay_trial(cfg: ScenarioConfig, t: int) -> dict:
    """Trial t's realization from raw generator calls on fresh streams, one
    call per quantity in the draw order the netsim module docstring gives,
    placed with the placement formulas written out here.

    It shares no code with the engine's draws, so a change to how the engine
    makes its generator calls (merging consecutive ones, say) must keep
    every number this replay draws.
    """
    geom = trial_rng(cfg.master_seed, t, STREAM_GEOMETRY)

    def ppp(r_in: float, r_out: float, density: float, marks: int = 0):
        # count, radius fractions, angle fractions, then marks per point;
        # returns the placement radii, the angle fractions and the marks
        if density == 0.0:
            return np.empty(0), np.empty(0), [np.empty(0)] * marks
        count = geom.poisson(density * Annulus(r_in, r_out).area)
        u_radius, u_angle = geom.random(count), geom.random(count)
        extra = [geom.random(count) for _ in range(marks)]
        return np.sqrt(r_in**2 + u_radius * (r_out**2 - r_in**2)), u_angle, extra

    u_radius, u_angle = geom.random(1), geom.random(1)
    device = polar(np.sqrt(0.0**2 + u_radius * (cfg.disaster_radius**2 - 0.0**2)), u_angle)[0]
    *disaster, (survival,) = ppp(0.0, cfg.disaster_radius, cfg.bs_density, marks=1)
    *ring, _ = ppp(cfg.disaster_radius, cfg.ring_outer_radius, cfg.bs_density)
    *aerial, _ = ppp(0.0, cfg.disaster_radius, cfg.aerial.density) if cfg.aerial else (np.empty(0), np.empty(0), [])

    # exterior: steps of 256 exponential gaps, then 256 angle fractions, until
    # the cumulative arrivals pass the annulus's expected count
    r_in, density = cfg.ring_outer_radius, cfg.bs_density
    target = density * Annulus(r_in, cfg.sim_radius).area
    ext = trial_rng(cfg.master_seed, t, STREAM_EXTERIOR)
    gaps, angles = [np.empty(0)], [np.empty(0)]
    while density > 0.0 and (gaps[-1].size == 0 or np.cumsum(np.concatenate(gaps))[-1] < target):
        gaps.append(ext.exponential(size=256))
        angles.append(ext.random(256))
    measure = np.cumsum(np.concatenate(gaps))
    inside = measure <= target
    exterior = np.sqrt(r_in**2 + measure[inside] / (density * math.pi)), np.concatenate(angles)[inside]

    survives = survival < cfg.bs_survival_prob
    n_d, n_r, n_a, n_e = (len(r) for r, _ in (disaster, ring, aerial, exterior))
    radius, angle = (np.concatenate(parts) for parts in zip(disaster, ring, aerial, exterior))
    zone = [netsim.Zone.DISASTER] * n_d + [netsim.Zone.ACTIVE_RING] * n_r + [netsim.Zone.DISASTER] * n_a
    zone += [netsim.Zone.SILENCING if r <= cfg.silencing_radius else netsim.Zone.OUTER for r in exterior[0]]
    return dict(
        device=device,
        xy=polar(radius, angle),
        radius=radius,
        zone=np.array(zone, dtype=np.int8),
        exterior=np.array([False] * (n_d + n_r + n_a) + [True] * n_e),
        altitude=np.array([0.0] * (n_d + n_r) + [cfg.aerial.altitude if cfg.aerial else 0.0] * n_a + [0.0] * n_e),
        tx=np.array([cfg.bs_tx_power] * (n_d + n_r) + [cfg.aerial.tx_power if cfg.aerial else 0.0] * n_a
                    + [cfg.bs_tx_power] * n_e),
        alive=np.concatenate([survives, np.ones(n_r + n_a + n_e, dtype=bool)]),
        arrival_steps=len(gaps) - 1,
    )


def assert_block_equals_replay(cfg: ScenarioConfig, trials: range) -> list[dict]:
    # entry for entry, the block's stations are the replayed ones and its
    # fading is the kernels' uplink and downlink draws; the other rows are
    # padding, never alive and with fading 0.0; build_network is a
    # one-trial block, so it is checked against the replay as well
    block = netsim._sample_block(cfg, netsim._StreamPool(cfg.master_seed), trials, True)
    up_g, up_h = block.up_fading
    user_u, down_g, down_h = block.down_draws
    assert block.n_trials == len(trials)
    n_rows = block.split + block.n_exterior.max()
    for a in (block.x, block.y, block.alive, block.radius, up_h, down_h):
        assert a.shape == (n_rows, len(trials)) and a.flags.c_contiguous
    for a in (block.alt, block.tx):  # without an aerial tier, read-only views of one value each
        assert a.shape == (n_rows, len(trials)) and (a.flags.c_contiguous if block.flying else not a.flags.writeable)
    assert block.split == max(1, block.n_inner.max())
    replays = []
    for i, t in enumerate(trials):
        want = replay_trial(cfg, t)
        replays.append(want)
        rows = trial_rows(block, i)
        n_bs = rows.stop - rows.start
        assert n_bs == len(want["xy"]) and block.n_exterior[i] == np.count_nonzero(want["exterior"])
        assert np.array_equal(block.x[rows, i], want["xy"][:, 0]) and np.array_equal(block.y[rows, i], want["xy"][:, 1])
        assert np.array_equal(block.alt[rows, i], want["altitude"])  # all 0.0 without an aerial tier
        assert np.array_equal(block.tx[rows, i], want["tx"])
        assert np.array_equal(block.alive[rows, i], want["alive"])
        assert np.array_equal(block.radius[rows, i], want["radius"])
        assert np.array_equal(block.device[i], want["device"])
        padding = np.ones(n_rows, dtype=bool)
        padding[rows] = False
        assert not block.alive[padding, i].any()
        assert not up_h[padding, i].any() and not down_h[padding, i].any()
        up = trial_rng(cfg.master_seed, t, STREAM_UPLINK)
        assert up_g[i] == up.exponential() and np.array_equal(up_h[rows, i], up.exponential(size=n_bs))
        down = trial_rng(cfg.master_seed, t, STREAM_DOWNLINK)
        assert user_u[0][i] == down.random() and user_u[1][i] == down.random()
        assert down_g[i] == down.exponential() and np.array_equal(down_h[rows, i], down.exponential(size=n_bs))

        net = build_network(cfg, t)
        assert np.array_equal(net.xy, want["xy"]) and np.array_equal(net.zone, want["zone"])
        assert np.array_equal(net.altitude, want["altitude"]) and np.array_equal(net.tx_power, want["tx"])
        assert np.array_equal(net.alive, want["alive"]) and np.array_equal(net.device_xy, want["device"])
    return replays


def test_block_sample_equals_sample_trial():
    cfg = base_cfg(aerial=AerialTier(density=1e-6, altitude=250.0, tx_power=0.3), master_seed=31)
    assert_block_equals_replay(cfg, range(3, 3 + netsim._BLOCK))


@pytest.mark.parametrize("bs_density", [2e-6, 0.0])
def test_block_sample_equals_raw_draw_replay(bs_density):
    # 2e-6 puts about 1200 arrivals in the exterior, at least 3 steps of 256;
    # density 0 draws no terrestrial station, and the aerial tier still flies
    cfg = base_cfg(bs_density=bs_density, aerial=AerialTier(density=1e-6, altitude=250.0, tx_power=0.3),
                   bs_survival_prob=0.4, master_seed=57)
    replays = assert_block_equals_replay(cfg, range(5, 5 + netsim._BLOCK + 3))
    steps = [want["arrival_steps"] for want in replays]
    if bs_density > 0.0:
        assert min(steps) >= 3
    else:
        assert max(steps) == 0 and sum(want["tx"].size for want in replays) > 0  # aerial stations only


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    bs_density=st.sampled_from([0.0, 2e-9, 4e-7, 2e-6]),
    aerial_density=st.sampled_from([None, 0.0, 5e-7, 3e-6]),
    survival=st.sampled_from([0.0, 0.3, 1.0]),
    exterior_width=st.sampled_from([3000.0, 12000.0]),
    first=st.integers(0, 10**6),
    n=st.integers(1, 2 * netsim._BLOCK - 1),  # up to a block with a merged tail
    seed=st.integers(0, 2**64 - 1),
)
def test_property_block_sample_equals_geometry_replay(bs_density, aerial_density, survival, exterior_width,
                                                      first, n, seed):
    ring_outer = 2600.0
    cfg = ScenarioConfig(
        disaster_radius=2000.0,
        active_ring_width=600.0,
        silencing_radius=ring_outer + exterior_width / 2,
        sim_radius=ring_outer + exterior_width,
        bs_density=bs_density,
        bs_survival_prob=survival,
        aerial=None if aerial_density is None else AerialTier(aerial_density, 150.0, 0.5),
        n_trials=1,
        master_seed=seed,
    )
    assert_block_equals_replay(cfg, range(first, first + n))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    bs_density=st.sampled_from([2e-9, 4e-7, 2e-6]),
    disaster_radius=st.floats(300.0, 3000.0),
    ring_width=st.floats(50.0, 1000.0),
    exterior_width=st.floats(500.0, 14000.0),
    picks=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=3),
    first=st.integers(0, 10**6),
    n=st.integers(1, 4),
    seed=st.integers(0, 2**64 - 1),
)
def test_property_silencing_zone_is_a_radius_prefix(bs_density, disaster_radius, ring_width, exterior_width,
                                                    picks, first, n, seed):
    ring_outer = disaster_radius + ring_width
    cfg = ScenarioConfig(
        disaster_radius=disaster_radius,
        active_ring_width=ring_width,
        silencing_radius=ring_outer + exterior_width,
        sim_radius=ring_outer + exterior_width,
        bs_density=bs_density,
        n_trials=1,
        master_seed=seed,
    )
    block = netsim._sample_block(cfg, netsim._StreamPool(seed), range(first, first + n), False)
    # r_s between stations, and exactly at an exterior station's radius
    placed = block.radius[block.split:][block.alive[block.split:]]  # exterior stations are alive, padding not
    placed = placed[(placed > ring_outer) & (placed <= cfg.sim_radius)]
    radii = [ring_outer + u * exterior_width for u in picks if ring_outer + u * exterior_width > ring_outer]
    radii += [float(placed[int(u * placed.size)]) for u in picks if placed.size]
    radii.append(cfg.sim_radius)
    for i, t in enumerate(range(first, first + n)):
        radius = block.radius[trial_rows(block, i), i]
        exterior = np.arange(radius.size) >= block.n_inner[i]
        assert np.all(np.diff(radius[exterior]) >= 0.0)
        assert np.all((ring_outer <= radius[exterior]) & (radius[exterior] <= cfg.sim_radius))
        for r_s in radii:
            # the engine's silencing zone: the exterior rows with radius <= r_s
            zone = exterior & (radius <= r_s)
            assert np.array_equal(np.flatnonzero(zone), block.n_inner[i] + np.arange(np.count_nonzero(zone)))
            net = build_network(dataclasses.replace(cfg, silencing_radius=r_s), t)
            assert np.array_equal(net.zone == netsim.Zone.SILENCING, zone)
            assert np.array_equal(net.zone == netsim.Zone.OUTER, exterior & ~zone)


def test_grid_equals_reference_at_a_station_radius():
    # r_s is exactly the radius of trial 0's innermost exterior station, so
    # that station alone is its silencing zone; under spectrum_split it is
    # the downlink user's only server, and a zone rule that left it out
    # would count a hole
    cfg = base_cfg(n_trials=6, master_seed=99)
    block = netsim._sample_block(cfg, netsim._StreamPool(cfg.master_seed), range(1), False)
    r_s = float(block.radius[block.split, 0])
    expected = assert_grid_matches(cfg, (r_s, 9000.0), POLICIES, workers=1)
    assert expected[0, 3, 2] > 0  # spectrum_split serves a silencing-area user at r_s


@pytest.mark.parametrize("seed", [0, 2024, 2**63 + 5, 2**64 - 1])
def test_stream_pool_equals_fresh_generators(seed):
    streams = netsim._StreamPool(seed)
    for t, role in [(0, 0), (7, 2), (7, 0), (2**40, 3), (7, 2), (1, 1)]:
        rng = streams.get(t, role)
        fresh = trial_rng(seed, t, role)
        assert rng.random(3).tolist() == fresh.random(3).tolist()
        assert rng.exponential(size=5).tolist() == fresh.exponential(size=5).tolist()
        rng.integers(0, 7, size=3, dtype=np.uint32)  # leaves half a word buffered
        fresh.integers(0, 7, size=3, dtype=np.uint32)


def test_serving_breaks_ties_to_lowest_index():
    # one column per trial: 0, rows 1 and 2 tie; 1, no candidate; 2, rows 1
    # and 2 tie and the nearer row 0 is no candidate; 3, a lone column of
    # three equal distances
    d = np.array([[2.0, 1.0, 0.5, 4.0], [1.0, 1.0, 3.0, 4.0], [1.0, 1.0, 3.0, 4.0]])
    on = np.array([[True, False, False, True], [True, False, True, True], [True, False, True, True]])
    rows, served = netsim._serving(d, on)
    assert rows[served].tolist() == [1, 1, 0] and served.tolist() == [True, False, True, True]
    rows, served = netsim._serving(d[:, 3:], on[:, 3:])
    assert rows.tolist() == [0] and served.tolist() == [True]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 7), st.lists(st.lists(st.tuples(st.booleans(), st.integers(0, 3)), max_size=7), min_size=1,
                                    max_size=8))
def test_property_serving_is_per_trial_argmin(n_rows, trials):
    # small integer distances make ties common; a trial's missing rows are
    # padding, never candidates
    d, on = np.full((n_rows, len(trials)), 9.0), np.zeros((n_rows, len(trials)), dtype=bool)
    for t, stations in enumerate(trials):
        for row, (candidate, dist) in enumerate(stations[:n_rows]):
            d[row, t], on[row, t] = dist, candidate
    rows, served = netsim._serving(d, on)
    for t, stations in enumerate(trials):
        mine = [row for row, (candidate, _) in enumerate(stations[:n_rows]) if candidate]
        assert served[t] == bool(mine)
        if mine:
            assert rows[t] == mine[int(np.argmin(d[mine, t]))]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    n_rows=st.integers(0, 900),
    n_columns=st.integers(1, 130),
    zeros=st.sampled_from([0.0, 0.3, 1.0]),
    low=st.integers(-30, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_column_sums_are_sequential_sums(n_rows, n_columns, zeros, low, seed):
    # terms of magnitudes 10^low to 1e5 with a share of zeros, as rows, as
    # a reversed view and in column-major memory; np.cumsum adds each term
    # to the sum before it, so its last row is the sequential sum
    rng = np.random.default_rng(seed)
    terms = rng.random((n_rows, n_columns)) * 10.0 ** rng.uniform(low, 5.0, (n_rows, n_columns))
    terms[rng.random((n_rows, n_columns)) < zeros] = 0.0
    for rows in (terms, terms[::-1], np.asfortranarray(terms)):
        expected = np.cumsum(rows, axis=0)[-1] if n_rows else np.zeros(n_columns)
        assert np.array_equal(netsim._column_sums(rows), expected)
        assert np.array_equal(netsim._column_sums(rows[:, :1]), expected[:1])


def test_place_block_reads_each_tier_and_keeps_a_station_at_the_centre_alive():
    # hand-built draws: a station at radius fraction 0.0 sits at radius 0.0,
    # where padding sits too; a disaster station's survival mark decides
    # whether it is alive, and an aerial station is alive wherever it is
    cfg = base_cfg(aerial=AerialTier(density=1e-6, altitude=250.0, tx_power=0.3))
    draws = netsim._Draws()
    draws.sizes += [2, 1, 2, 1, 0, 0, 1, 0]
    draws.device += [np.array([0.5, 0.5])] * 2
    draws.tiers[0].append(np.array([[0.0, 0.25], [0.1, 0.2], [0.1, 0.9]]))  # marks 0.1 < 0.5 < 0.9
    draws.tiers[1].append(np.array([[0.5], [0.3]]))
    draws.tiers[2].extend([np.array([[0.0, 0.5], [0.4, 0.6]]), np.array([[0.0], [0.7]])])
    draws.measure.append(np.array([1.0]))
    draws.angles.append(np.array([0.8]))
    block = netsim._place_block(cfg, draws)
    assert block.split == 5 and list(block.n_inner) == [5, 1] and list(block.n_exterior) == [1, 0]
    first, second = (trial_rows(block, t) for t in range(2))
    disaster, ring = cfg.disaster_radius, cfg.ring_outer_radius
    assert list(block.radius[first, 0]) == [0.0, disaster * 0.5, math.sqrt(disaster**2 + 0.5 * (ring**2 - disaster**2)),
                                            0.0, disaster * math.sqrt(0.5), block.radius[5, 0]]
    assert block.radius[5, 0] == math.sqrt(ring**2 + 1.0 / (cfg.bs_density * math.pi))
    assert list(block.alive[first, 0]) == [True, False, True, True, True, True]
    assert list(block.alt[first, 0]) == [0.0, 0.0, 0.0, 250.0, 250.0, 0.0]
    assert list(block.tx[first, 0]) == [1.0, 1.0, 1.0, 0.3, 0.3, 1.0]
    assert (block.radius[second, 1], block.alive[second, 1], block.alt[second, 1]) == (0.0, True, 250.0)
    assert block.alive.sum() == 6  # no padding entry is alive


def sequential_sums(inner, exterior, inside):
    """(I_fix, I_sil) of one trial's (term, on) stations, with the first
    `inside` exterior stations in the silencing zone, in the summation
    order of the netsim module docstring."""
    i_inner = i_sil = i_outer = 0.0
    for term, on in inner:
        if on:
            i_inner += term
    for term, on in exterior[:inside]:
        if on:
            i_sil += term
    for term, on in reversed(exterior[inside:]):
        if on:
            i_outer += term
    return i_inner + i_outer, i_sil


def kernel_sums(inner, exterior, inside):
    """(I_fix, I_fix + I_sil) from _grouped_interference on a snapshot of the
    same stations: every station sits at the point, so each gain is 1.0 and
    each term is its station's tx power."""
    zones = ([netsim.Zone.DISASTER, netsim.Zone.ACTIVE_RING] * len(inner))[:len(inner)]
    zones += [netsim.Zone.SILENCING] * inside + [netsim.Zone.OUTER] * (len(exterior) - inside)
    stations = [dict(x=0.0, y=0.0, zone=z, tx_power=term) for (term, _), z in zip(inner + exterior, zones)]
    on = np.array([o for _, o in inner + exterior], dtype=bool)
    ch = ChannelParams(path_loss_exponent=3.0)
    sums = []
    for f in (0.0, 1.0):
        net = snapshot_from_stations(stations)
        net.power_factor[net.zone == netsim.Zone.SILENCING] = f
        sums.append(netsim._grouped_interference(net, ch, on, np.ones(net.n_bs), np.zeros(2), 0.0))
    return tuple(sums)


# long enough that NumPy's pairwise np.sum would add in another order
station_terms = st.lists(st.tuples(st.floats(0.0, 1e6).map(abs), st.booleans()), max_size=40)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.tuples(station_terms.map(lambda t: t[:12]), station_terms,
                          st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)), min_size=1, max_size=6))
def test_property_sums_are_sequential_sums(trials):
    # padded blocks with empty trials, trials without exterior stations,
    # random interferer masks and, per trial, two random silencing-zone
    # counts; a group without interferers is skipped and reads 0.0
    cfg = base_cfg()
    draws = netsim._Draws()
    for inner, exterior, _ in trials:
        n_disaster = len(inner) // 2
        n_ring = len(inner) - n_disaster
        draws.sizes.extend((n_disaster, n_ring, 0, len(exterior)))
        draws.device.append(np.array([0.5, 0.5]))
        # per tier, rows of radius fractions, angle fractions (and survival marks)
        draws.tiers[0].append(np.tile([[0.5], [0.0], [0.0]], n_disaster))
        draws.tiers[1].append(np.tile([[0.5], [0.0]], n_ring))
        draws.measure.append(np.arange(1.0, len(exterior) + 1.0))
        draws.angles.append(np.zeros(len(exterior)))
    block = netsim._place_block(cfg, draws)
    split = block.split
    kept = np.zeros(block.x.shape)
    for t, (inner, exterior, _) in enumerate(trials):
        kept[trial_rows(block, t), t] = [term if on else 0.0 for term, on in inner + exterior]
    inside = np.array([[round(u * len(exterior)) for u in fractions] for _, exterior, fractions in trials])
    for k in range(2):
        sil = np.arange(kept.shape[0] - split)[:, None] < inside[:, k]
        i_fix, i_sil = netsim._sums(kept, split, sil)
        for t, (inner, exterior, _) in enumerate(trials):
            expected = sequential_sums(inner, exterior, inside[t, k])
            assert (i_fix[t], i_sil[t]) == expected
            assert kernel_sums(inner, exterior, inside[t, k]) == (expected[0], expected[0] + 1.0 * expected[1])
        # a policy under which only the silencing zone transmits, or every
        # zone but it: the group left without interferers is not summed, and
        # its 0.0 has the bits of its sum
        in_sil = np.concatenate((np.zeros((split, len(trials)), dtype=bool), sil))
        for fixed_on, kept_k in ((False, kept * in_sil), (True, kept * ~in_sil)):
            j = 0 if fixed_on else 1  # the sum that keeps its interferers
            summed = netsim._sums(kept_k, split, sil)
            skipped = netsim._sums(kept_k, split, sil, fixed_on, not fixed_on)
            assert np.array_equal(skipped[j], summed[j]) and np.array_equal(skipped[j], (i_fix, i_sil)[j])
            assert skipped[1 - j] == 0.0 and not summed[1 - j].any() and not np.signbit(summed[1 - j]).any()


@st.composite
def hand_snapshots(draw):
    """A snapshot from conftest.snapshot_from_stations with random zones and
    positions, dead stations, stations at power factor 0 and stations on
    the other band; the silencing zone shares one factor. Also each
    station's fading, a user position and a channel."""
    coord = st.floats(-6000.0, 6000.0)
    f = draw(st.sampled_from([0.0, 0.4, 1.0]))
    stations = []
    for _ in range(draw(st.integers(1, 14))):
        zone = draw(st.sampled_from((netsim.Zone.DISASTER, netsim.Zone.ACTIVE_RING,
                                     netsim.Zone.SILENCING, netsim.Zone.OUTER)))
        stations.append({
            "x": draw(coord), "y": draw(coord), "zone": zone,
            "altitude": draw(st.sampled_from([0.0, 300.0])),
            "tx_power": draw(st.floats(0.01, 10.0)),
            "power_factor": f if zone == netsim.Zone.SILENCING else draw(st.sampled_from([0.0, 0.5, 1.0])),
            "band": draw(st.sampled_from((netsim.Band.DISASTER_BAND, netsim.Band.ALTERNATE_BAND))),
            "alive": draw(st.booleans()),
        })
    net = snapshot_from_stations(stations, device=(draw(coord), draw(coord)))
    fading = np.array([draw(st.floats(0.0, 5.0)) for _ in stations])
    ch = ChannelParams(path_loss_exponent=draw(st.sampled_from([3.0, 3.5, 4.0])),
                       noise_power=draw(st.sampled_from([0.0, 1e-12])))
    return net, fading, np.array([draw(coord), draw(coord)]), ch


@settings(max_examples=80, deadline=None, derandomize=True)
@given(hand_snapshots())
def test_property_kernels_ignore_stations_that_do_not_transmit(case):
    # the zero-term rule: deleting every station that does not transmit on
    # the link's band leaves the SINR's bits and the server, remapped
    net, fading, user, ch = case
    cfg = ScenarioConfig(device_tx_power=0.2, channel=ch)
    links = [(netsim.Band.DISASTER_BAND, lambda n, h: uplink_sinr(n, cfg, 0.7, h))]
    links += [(band, lambda n, h, band=band: downlink_sinr(n, cfg, user, band, 1.3, h))
              for band in (netsim.Band.DISASTER_BAND, netsim.Band.ALTERNATE_BAND)]
    for band, kernel in links:
        keep = np.flatnonzero(net.alive & (net.power_factor > 0.0) & (net.band == band))
        kept = netsim.NetworkSnapshot(net.xy[keep], net.zone[keep], net.altitude[keep], net.tx_power[keep],
                                      net.power_factor[keep], net.band[keep], net.alive[keep], net.device_xy)
        sinr, serving = kernel(net.copy(), fading)
        kept_sinr, kept_serving = kernel(kept, fading[keep])
        assert np.float64(sinr).tobytes() == np.float64(kept_sinr).tobytes(), band
        assert serving == (keep[kept_serving] if kept_serving >= 0 else -1), band


class SerialPool:
    """A stand-in for ProcessPoolExecutor: records the size asked for and
    the edge list of every task mapped, and maps in this process."""

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, cfg, radii, policies, downlink, tasks):
        tasks = list(tasks)
        self.tasks.append(tasks)
        return map(fn, cfg, radii, policies, downlink, tasks)


@pytest.fixture
def serial_pool(monkeypatch):
    class Pool(SerialPool):
        sizes, tasks = [], []

    monkeypatch.setattr(netsim, "ProcessPoolExecutor", Pool)
    return Pool


def test_pool_forks_at_most_one_worker_per_64_trials(serial_pool):
    # the rule counts trials, not blocks, and no pool for one worker: 127
    # trials on 2 workers run in this process, 128 fork 2, and 5 * 64 + 3
    # trials on 64 workers fork 5
    assert netsim._TRIALS_PER_WORKER == 64
    cases = [(127, 2), (128, 2), (5 * 64 + 3, 64)]
    for n_trials, workers in cases:
        cfg = base_cfg(n_trials=n_trials)
        assert estimate_grid(cfg, (9000.0,), FOUR, workers=workers) == estimate_grid(cfg, (9000.0,), FOUR, workers=1)
    assert serial_pool.sizes == [2, 5]


@pytest.mark.parametrize("n_trials,workers", [(128, 2), (323, 5), (1000, 3), (100_000, 2), (100_000, 8)])
def test_pool_chunks_are_unchanged_with_four_blocks_per_worker(serial_pool, monkeypatch, n_trials, workers):
    # with n >= 64 * workers every worker is forked, and each task is a run
    # of whole blocks of the one partition, about four tasks per worker
    # where there are enough blocks (see
    # test_property_trials_are_cut_into_fewest_blocks_of_at_most_63); the
    # tasks count nothing here, so 100k trials cost no scoring
    monkeypatch.setattr(netsim, "_count_blocks", lambda *task: 0)
    estimate_grid(base_cfg(n_trials=n_trials), (9000.0,), FOUR, workers=workers)
    assert serial_pool.sizes == [workers]
    # the trials each task spans, where they must not move
    pinned = {
        (128, 2): [42, 43, 43],
        (323, 5): [53] + [54] * 5,
        (1000, 3): [125] * 8,
        (100_000, 2): [12531, 12531, 12532, 12531, 12532, 12531, 12532, 12280],
        (100_000, 8): [3148, 3149, 3148, 3149, 3149, 3148, 3149, 3148, 3149, 3149, 3148, 3149, 3148, 3149, 3149,
                       3148, 3149, 3149, 3148, 3149, 3148, 3149, 3149, 3148, 3149, 3148, 3149, 3149, 3148, 3149,
                       3149, 2393],
    }
    assert [task[-1] - task[0] for task in serial_pool.tasks[0]] == pinned[n_trials, workers]


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(1, 200_000), workers=st.integers(1, 8))
def test_property_trials_are_cut_into_fewest_blocks_of_at_most_63(serial_pool, monkeypatch, n, workers):
    # estimate_grid cuts [0, n) once into ceil(n / 63) near-equal blocks of
    # 32 to 63 trials (n < 32 is one smaller block), whatever the worker
    # count, and a pool task is a run of whole blocks; the blocks count
    # nothing here, so 200k trials cost no scoring
    calls = []

    def count(cfg, radii, policies, downlink, edges):
        calls.append(list(edges))
        return np.zeros((len(radii), len(policies), 4), dtype=np.int64)

    monkeypatch.setattr(netsim, "_count_blocks", count)
    serial_pool.tasks.clear()
    cfg = base_cfg(n_trials=n)
    estimate_grid(cfg, (9000.0,), FOUR[:1], workers=1)
    (edges,) = calls
    sizes = np.diff(edges)
    assert edges[0] == 0 and edges[-1] == n and len(sizes) == math.ceil(n / 63)
    if n < 32:
        assert sizes.tolist() == [n]
    else:
        assert sizes.min() >= 32 and sizes.max() <= 63
    calls.clear()
    estimate_grid(cfg, (9000.0,), FOUR[:1], workers=workers)
    if min(workers, n // netsim._TRIALS_PER_WORKER) > 1:
        (tasks,) = serial_pool.tasks
        assert all(len(task) >= 2 for task in tasks)
        assert [e for task in tasks for e in task[:-1]] + [n] == edges
        assert all(a[-1] == b[0] for a, b in zip(tasks, tasks[1:])) and tasks[-1][-1] == n
        assert calls == tasks
    else:
        assert calls == [edges] and serial_pool.tasks == []


@pytest.mark.parametrize("workers", [1, 2])
def test_blocks_hold_block_to_twice_block_minus_one_trials(serial_pool, monkeypatch, workers):
    # the n trials are cut once into as few near-equal blocks as hold at
    # most 2 * _BLOCK - 1 trials, so each holds _BLOCK to 2 * _BLOCK - 1
    # and no short tail block pays a block's fixed cost for a few trials;
    # only n < _BLOCK is one smaller block. The blocks do not depend on the
    # worker count, and a pool task is a run of whole blocks, so none is
    # shorter than _BLOCK: 152 trials on 2 workers are tasks of 50, 51 and 51.
    blocks = []
    original = netsim._sample_block

    def recording(cfg, streams, trials, downlink):
        blocks.append(trials)
        return original(cfg, streams, trials, downlink)

    monkeypatch.setattr(netsim, "_sample_block", recording)
    block = netsim._BLOCK
    for n in (1, 31, 50, 63, 64, 100, 152):
        estimate_grid(base_cfg(bs_density=0.0, n_trials=n), (9000.0,), FOUR[:1], workers=1)
        in_process = blocks[:]
        blocks.clear()
        serial_pool.tasks.clear()
        estimate_grid(base_cfg(bs_density=0.0, n_trials=n), (9000.0,), FOUR[:1], workers=workers)
        assert blocks == in_process, n
        blocks.clear()
        assert [t for trials in in_process for t in trials] == list(range(n)), n
        sizes = [len(trials) for trials in in_process]
        if n < block:
            assert sizes == [n]
        else:
            assert all(block <= size < 2 * block for size in sizes), (n, sizes)
        for tasks in serial_pool.tasks:
            edges = [trials.start for trials in in_process] + [n]
            assert [e for task in tasks for e in task[:-1]] + [n] == edges, n
            assert all(task[-1] - task[0] >= block for task in tasks), (n, tasks)
        if n == 50:
            assert len(in_process) == 1
    assert serial_pool.tasks == ([[[0, 50], [50, 101], [101, 152]]] if workers == 2 else [])


def test_radius_outside_sim_radius_rejected():
    with pytest.raises(ScenarioError) as err:
        estimate_grid(base_cfg(), (9000.0, 15000.0), POLICIES)
    assert err.value.field == "sim_radius"


# ---------------------------------------------------------------------------
# properties the docstrings promise, on small random configurations
# ---------------------------------------------------------------------------

RHOS = (0.0, 0.3, 0.7, 1.0)


@st.composite
def small_configs(draw):
    disaster = draw(st.floats(300.0, 2000.0))
    ring = draw(st.floats(100.0, 800.0))
    inner = disaster + ring
    span = draw(st.floats(500.0, 8000.0))
    fractions = sorted(draw(st.sets(st.floats(0.05, 1.0), min_size=1, max_size=3)))
    radii = tuple(sorted({inner + f * span for f in fractions}))
    noise = draw(st.sampled_from([0.0, 1e-15, 1e-12]))
    cfg = ScenarioConfig(
        disaster_radius=disaster,
        active_ring_width=ring,
        silencing_radius=radii[-1],
        sim_radius=inner + span,
        bs_density=draw(st.floats(1e-7, 3e-6)),
        bs_survival_prob=draw(st.floats(0.0, 1.0)),
        device_tx_power=draw(st.floats(0.01, 1.0)),
        bs_tx_power=draw(st.floats(0.01, 10.0)),
        channel=ChannelParams(
            path_loss_exponent=draw(st.floats(2.5, 4.5)),
            sinr_threshold=draw(st.floats(0.01, 10.0)),
            noise_power=noise,
        ),
        n_trials=draw(st.integers(1, 25)),
        master_seed=draw(st.integers(0, 2**64 - 1)),
    )
    return cfg, radii


PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)


@PROPERTY_SETTINGS
@given(small_configs())
def test_property_p_disaster_monotone_in_rho_and_radius(case):
    cfg, radii = case
    grid = estimate_grid(cfg, radii, [SilencingPolicy.partial(rho) for rho in RHOS], downlink=False)
    p = [[up.value for up, _ in row] for row in grid]
    for row in p:
        assert all(a >= b for a, b in zip(row, row[1:]))  # non-increasing in rho
    at_zero = [row[0] for row in p]
    assert all(a <= b for a, b in zip(at_zero, at_zero[1:]))  # non-decreasing in radius


@PROPERTY_SETTINGS
@given(small_configs())
def test_property_uplink_policy_identities(case):
    cfg, radii = case
    policies = (SilencingPolicy.complete(), SilencingPolicy.partial(0.0), SilencingPolicy.spectrum_split())
    for row in estimate_grid(cfg, radii, policies, downlink=False):
        complete, partial0, split = (up for up, _ in row)
        assert complete == partial0 == split


@settings(max_examples=6, deadline=None, derandomize=True)
@given(small_configs())
def test_property_counts_independent_of_workers(case):
    cfg, radii = case
    # 2 workers fork a pool only from 2 * 64 trials on
    cfg = dataclasses.replace(cfg, n_trials=2 * netsim._TRIALS_PER_WORKER + cfg.n_trials)
    policies = (SilencingPolicy.none(), SilencingPolicy.partial(0.5), SilencingPolicy.spectrum_split())
    grid = estimate_grid(cfg, radii, policies, workers=1)
    assert estimate_grid(cfg, radii, policies, workers=2) == grid
    # skipping the downlink leaves every uplink count as it is
    assert estimate_grid(cfg, radii, policies, downlink=False) == [[(up, None) for up, _ in row] for row in grid]
