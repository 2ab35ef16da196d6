import ctypes
import dataclasses
import math
from pathlib import Path
import pickle
import platform

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    disaster_station,
    outer_station,
    ring_station,
    silencing_station,
    snapshot_from_stations,
)
from disastersim import netsim, planner
from disastersim.channel import ChannelParams, path_gain
from disastersim.netsim import (
    STREAM_UPLINK,
    AerialTier,
    Band,
    ScenarioConfig,
    ScenarioError,
    SilencingPolicy,
    Zone,
    apply_policy,
    build_network,
    downlink_sinr,
    downlink_trial,
    estimate_silencing_area_coverage,
    estimate_success,
    trial_rng,
    uplink_sinr,
    uplink_trial,
)
from disastersim.scenario import load_scenario

UNIT_CHANNEL = ChannelParams(path_loss_exponent=4.0, sinr_threshold=0.1, noise_power=0.0)


def unit_cfg(**overrides):
    base = dict(
        bs_density=1e-6,
        bs_survival_prob=0.5,
        device_tx_power=1.0,
        bs_tx_power=1.0,
        channel=UNIT_CHANNEL,
        n_trials=100,
        master_seed=7,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "field,value",
    [
        ("disaster_radius", -1.0),
        ("active_ring_width", 0.0),
        ("silencing_radius", 2500.0),
        ("silencing_radius", 2600.0),  # the ring's outer edge: an empty silencing annulus
        ("sim_radius", 5000.0),
        ("bs_density", -1e-6),
        ("bs_survival_prob", 1.5),
        ("device_tx_power", -1.0),
        ("bs_tx_power", -2.0),
        ("n_trials", 0),
        ("master_seed", -1),
        ("master_seed", 2**64),
        *[
            (field, value)
            for field in ("disaster_radius", "active_ring_width", "silencing_radius", "sim_radius",
                          "bs_density", "bs_survival_prob", "device_tx_power", "bs_tx_power")
            for value in (math.nan, math.inf)
        ],
    ],
)
def test_config_validation_names_field(field, value):
    with pytest.raises(ScenarioError) as err:
        unit_cfg(**{field: value})
    assert err.value.field == field


@pytest.mark.parametrize("field,value", [
    *[(field, value) for field in ("density", "altitude", "tx_power") for value in (-1.0, math.nan, math.inf)],
    ("altitude", 0.0),
])
def test_aerial_tier_validation_names_field(field, value):
    kwargs = dict(density=1e-6, altitude=300.0, tx_power=1.0)
    kwargs[field] = value
    with pytest.raises(ScenarioError) as err:
        AerialTier(**kwargs)
    assert err.value.field == f"aerial.{field}"


def test_scenario_error_pickle_round_trip():
    err = ScenarioError("silencing_radius", "silencing annulus is empty")
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is ScenarioError
    assert back.field == "silencing_radius"
    assert str(back) == str(err) == "silencing_radius: silencing annulus is empty"


def test_largest_seed_accepted():
    cfg = unit_cfg(master_seed=2**64 - 1, n_trials=5)
    assert estimate_success(cfg, SilencingPolicy.none()).master_seed == 2**64 - 1


def test_policy_validation():
    with pytest.raises(ValueError):
        SilencingPolicy("louder")
    with pytest.raises(ValueError):
        SilencingPolicy.partial(1.5)
    assert SilencingPolicy.none().silencing_power_factor == 1.0
    assert SilencingPolicy.complete().silencing_power_factor == 0.0
    assert SilencingPolicy.partial(0.3).silencing_power_factor == 0.3
    assert SilencingPolicy.spectrum_split().silencing_power_factor == 1.0


# ---------------------------------------------------------------------------
# build_network
# ---------------------------------------------------------------------------

def test_build_network_deterministic_field_for_field():
    cfg = unit_cfg()
    a = build_network(cfg, 11)
    b = build_network(cfg, 11)
    for name in ("xy", "zone", "altitude", "tx_power", "power_factor", "band", "alive", "device_xy"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_build_network_trials_differ():
    cfg = unit_cfg()
    a = build_network(cfg, 0)
    b = build_network(cfg, 1)
    assert a.n_bs != b.n_bs or not np.array_equal(a.xy, b.xy)


def test_build_network_zero_density():
    net = build_network(unit_cfg(bs_density=0.0), 3)
    assert net.n_bs == 0
    assert np.hypot(*net.device_xy) <= 2000.0


def test_build_network_zero_survival():
    net = build_network(unit_cfg(bs_survival_prob=0.0, bs_density=5e-6), 3)
    terrestrial_disaster = (net.zone == Zone.DISASTER) & (net.altitude == 0.0)
    assert terrestrial_disaster.sum() > 0
    assert not net.alive[terrestrial_disaster].any()


def test_build_network_zone_consistent_with_radius():
    cfg = unit_cfg(bs_density=3e-6, silencing_radius=9000.0)
    net = build_network(cfg, 5)
    r = np.hypot(net.xy[:, 0], net.xy[:, 1])
    assert np.all(r[net.zone == Zone.DISASTER] <= 2000.0)
    ring = net.zone == Zone.ACTIVE_RING
    assert np.all((r[ring] >= 2000.0) & (r[ring] <= 2600.0))
    sil = net.zone == Zone.SILENCING
    assert np.all((r[sil] >= 2600.0) & (r[sil] <= 9000.0))
    outer = net.zone == Zone.OUTER
    assert np.all((r[outer] > 9000.0) & (r[outer] <= 20000.0))


def test_build_network_snapshot_invariants():
    net = build_network(unit_cfg(bs_density=3e-6), 2)
    # dead stations only inside the disaster disk; everything starts at full
    # power on the disaster band
    assert np.all(net.zone[~net.alive] == Zone.DISASTER)
    assert np.all(net.power_factor == 1.0)
    assert np.all(net.band == Band.DISASTER_BAND)


def test_build_network_aerial_tier():
    from disastersim.netsim import AerialTier

    cfg = unit_cfg(aerial=AerialTier(density=2e-6, altitude=500.0, tx_power=5.0))
    counts = []
    for t in range(200):
        net = build_network(cfg, t)
        airborne = net.altitude > 0.0
        counts.append(airborne.sum())
        assert np.all(net.zone[airborne] == Zone.DISASTER)
        assert np.all(net.alive[airborne])
        assert np.all(net.tx_power[airborne] == 5.0)
        r = np.hypot(net.xy[airborne, 0], net.xy[airborne, 1])
        assert np.all(r <= 2000.0)
    lam = 2e-6 * math.pi * 2000.0**2
    assert abs(np.mean(counts) - lam) < 3.0 * math.sqrt(lam / 200)


def test_build_network_device_uniform_in_disk():
    cfg = unit_cfg(bs_density=0.0)
    r2 = []
    for t in range(2000):
        net = build_network(cfg, t)
        r2.append((net.device_xy[0] ** 2 + net.device_xy[1] ** 2) / 2000.0**2)
    # r^2 / R^2 is uniform on [0, 1]
    assert abs(np.mean(r2) - 0.5) < 3.0 * math.sqrt(1.0 / 12 / 2000)


# ---------------------------------------------------------------------------
# apply_policy
# ---------------------------------------------------------------------------

def _policy_fixture():
    return snapshot_from_stations(
        [
            disaster_station(100.0, 0.0),
            ring_station(2300.0, 0.0),
            silencing_station(3000.0, 0.0),
            silencing_station(0.0, 4000.0),
            outer_station(15000.0, 0.0),
        ]
    )


def test_apply_policy_partial_one_is_identity():
    net = _policy_fixture()
    out = apply_policy(net, SilencingPolicy.partial(1.0))
    assert np.array_equal(out.power_factor, net.power_factor)
    assert np.array_equal(out.band, net.band)


def test_apply_policy_complete_touches_only_silencing_zone():
    net = _policy_fixture()
    out = apply_policy(net, SilencingPolicy.complete())
    sil = net.zone == Zone.SILENCING
    assert np.all(out.power_factor[sil] == 0.0)
    assert np.all(out.power_factor[~sil] == 1.0)
    assert np.all(out.band == Band.DISASTER_BAND)


def test_apply_policy_partial_factor():
    out = apply_policy(_policy_fixture(), SilencingPolicy.partial(0.25))
    sil = out.zone == Zone.SILENCING
    assert np.all(out.power_factor[sil] == 0.25)
    assert np.all(out.power_factor[~sil] == 1.0)


def test_apply_policy_spectrum_split_retunes_band():
    out = apply_policy(_policy_fixture(), SilencingPolicy.spectrum_split())
    sil = out.zone == Zone.SILENCING
    assert np.all(out.band[sil] == Band.ALTERNATE_BAND)
    assert np.all(out.band[~sil] == Band.DISASTER_BAND)
    assert np.all(out.power_factor == 1.0)


def test_apply_policy_does_not_mutate_input():
    net = _policy_fixture()
    before = net.power_factor.copy()
    apply_policy(net, SilencingPolicy.complete())
    assert np.array_equal(net.power_factor, before)


def test_spectrum_split_disaster_band_interferers_match_complete():
    split = apply_policy(_policy_fixture(), SilencingPolicy.spectrum_split())
    complete = apply_policy(_policy_fixture(), SilencingPolicy.complete())
    split_set = split.alive & (split.power_factor > 0) & (split.band == Band.DISASTER_BAND)
    complete_set = complete.alive & (complete.power_factor > 0) & (complete.band == Band.DISASTER_BAND)
    assert np.array_equal(split_set, complete_set)


# ---------------------------------------------------------------------------
# uplink on hand layouts
# ---------------------------------------------------------------------------

def test_uplink_sir_256_hand_layout():
    # serving 100 m from the device, one interferer 400 m from the serving
    # site, unit fading, equal powers, alpha 4: SIR = (400/100)^4 = 256
    net = snapshot_from_stations(
        [disaster_station(100.0, 0.0), outer_station(500.0, 0.0)],
        device=(0.0, 0.0),
    )
    cfg = unit_cfg()
    sinr, serving = uplink_sinr(net, cfg, 1.0, np.ones(2))
    assert serving == 0
    assert sinr == 256.0
    assert 10.0 * math.log10(sinr) == pytest.approx(24.082, abs=1e-3)


def test_uplink_no_interferers_is_infinite_sir():
    net = snapshot_from_stations([disaster_station(250.0, 0.0)])
    sinr, serving = uplink_sinr(net, unit_cfg(), 1.0, np.ones(1))
    assert serving == 0
    assert sinr == math.inf
    res = uplink_trial(net, unit_cfg(), np.random.default_rng(0))
    assert res.success and not res.coverage_hole


def test_uplink_noise_only_sinr_hand_case():
    # 10 m link, alpha 4, unit power and fading: signal 1e-4 W over 1e-5 W noise
    net = snapshot_from_stations([disaster_station(10.0, 0.0)])
    cfg = unit_cfg(channel=ChannelParams(path_loss_exponent=4.0, noise_power=1e-5))
    sinr, serving = uplink_sinr(net, cfg, 1.0, np.ones(1))
    assert serving == 0
    assert sinr == pytest.approx(10.0, rel=1e-12)


def test_uplink_sinr_decreasing_in_interference():
    net = snapshot_from_stations([disaster_station(100.0, 0.0), outer_station(500.0, 0.0)])
    cfg = unit_cfg(channel=ChannelParams(path_loss_exponent=4.0, noise_power=1e-12))
    values = [uplink_sinr(net, cfg, 1.0, np.array([1.0, h]))[0] for h in (0.0, 0.1, 0.5, 2.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_uplink_only_exterior_stations_is_coverage_hole():
    net = snapshot_from_stations([silencing_station(3000.0, 0.0), outer_station(9000.0, 0.0)])
    res = uplink_trial(net, unit_cfg(), np.random.default_rng(0))
    assert not res.success
    assert res.coverage_hole
    assert math.isnan(res.sinr)


def test_uplink_dead_station_cannot_serve():
    net = snapshot_from_stations([disaster_station(100.0, 0.0, alive=False)])
    res = uplink_trial(net, unit_cfg(), np.random.default_rng(0))
    assert res.coverage_hole


def test_uplink_nearest_station_serves():
    net = snapshot_from_stations(
        [disaster_station(1500.0, 0.0), ring_station(-2200.0, 0.0), disaster_station(0.0, 900.0)],
        device=(0.0, 0.0),
    )
    _, serving = uplink_sinr(net, unit_cfg(), 1.0, np.ones(3))
    assert serving == 2


def test_uplink_tie_breaks_to_lowest_index():
    net = snapshot_from_stations([disaster_station(300.0, 0.0), disaster_station(-300.0, 0.0)])
    _, serving = uplink_sinr(net, unit_cfg(), 1.0, np.ones(2))
    assert serving == 0


def test_uplink_silenced_station_neither_serves_nor_interferes():
    net = snapshot_from_stations(
        [disaster_station(400.0, 0.0), silencing_station(3000.0, 0.0, power_factor=0.0)]
    )
    sinr, _ = uplink_sinr(net, unit_cfg(), 1.0, np.ones(2))
    assert sinr == math.inf


def test_uplink_partial_power_factor_scales_interference():
    stations = [disaster_station(100.0, 0.0), silencing_station(3000.0, 0.0)]
    cfg = unit_cfg()
    full, _ = uplink_sinr(snapshot_from_stations(stations), cfg, 1.0, np.ones(2))
    stations[1]["power_factor"] = 0.5
    half, _ = uplink_sinr(snapshot_from_stations(stations), cfg, 1.0, np.ones(2))
    assert half == pytest.approx(2.0 * full, rel=1e-12)


def test_uplink_aerial_uses_3d_distance():
    # aerial interferer hovering straight above the serving site: the
    # interference path length is exactly the altitude
    net = snapshot_from_stations(
        [
            disaster_station(100.0, 0.0),
            disaster_station(100.0, 0.0, altitude=300.0, tx_power=1.0),
        ]
    )
    cfg = unit_cfg()
    sinr, serving = uplink_sinr(net, cfg, 1.0, np.ones(2))
    assert serving == 0
    expected = (1.0 * path_gain(100.0, cfg.channel)) / (1.0 * path_gain(300.0, cfg.channel))
    assert sinr == pytest.approx(expected, rel=1e-12)


coordinate = st.floats(-3e4, 3e4, allow_subnormal=True)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(coordinate, coordinate, st.floats(0.0, 1e3)), min_size=1, max_size=20),
       coordinate, coordinate, st.floats(0.0, 1e3))
def test_property_distance_without_altitudes_is_the_3d_formula(stations, px, py, pz):
    # the 3-D formula with every altitude 0.0 adds (0.0 - 0.0)^2 = +0.0 to
    # a sum of squares, which changes no bit, so the 2-D distance has its
    # bits; with altitudes, the 3-D distance is the formula's
    x, y, z = (np.array(column) for column in zip(*stations))
    zeros = np.zeros_like(z)
    flat = np.sqrt((x - px) ** 2 + (y - py) ** 2 + (zeros - 0.0) ** 2)
    assert np.array_equal(netsim._distance(x, y, px, py), flat)
    assert np.array_equal(netsim._distance(x, y, px, py, zeros, 0.0), flat)
    assert np.array_equal(netsim._distance(x, y, px, py, z, pz), np.sqrt((x - px) ** 2 + (y - py) ** 2 + (z - pz) ** 2))


def test_uplink_aerial_can_serve_with_3d_range():
    net = snapshot_from_stations(
        [disaster_station(0.0, 0.0, altitude=250.0), disaster_station(600.0, 0.0)]
    )
    cfg = unit_cfg()
    sinr, serving = uplink_sinr(net, cfg, 1.0, np.ones(2))
    assert serving == 0  # 250 m of altitude beats 600 m of ground range


# ---------------------------------------------------------------------------
# closed-form Rayleigh outage oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "tau,noise,p_device,expected",
    [
        # exponent = tau * N * d0^alpha / P_d with d0 = 100 m, alpha = 4
        (0.1, 1e-8, 1.0, math.exp(-0.1)),  # 0.9048
        (0.5, 1e-8, 1.0, math.exp(-0.5)),  # 0.6065
        (0.1, 1e-8, 0.04343, math.exp(-2.302554)),  # ~0.1000
    ],
)
def test_noise_only_success_matches_rayleigh_outage(tau, noise, p_device, expected):
    net = snapshot_from_stations([disaster_station(100.0, 0.0)])
    cfg = unit_cfg(
        device_tx_power=p_device,
        channel=ChannelParams(path_loss_exponent=4.0, sinr_threshold=tau, noise_power=noise),
    )
    rng = np.random.default_rng(2026)
    n = 100_000
    hits = sum(uplink_trial(net, cfg, rng).success for _ in range(n))
    assert abs(hits / n - expected) < 0.01


# ---------------------------------------------------------------------------
# estimates
# ---------------------------------------------------------------------------

def test_estimate_certain_success_without_interference():
    cfg = unit_cfg(bs_tx_power=0.0, bs_density=2e-6, bs_survival_prob=1.0, n_trials=300)
    est = estimate_success(cfg, SilencingPolicy.none())
    assert est.value == 1.0
    assert est.n_coverage_holes == 0


def test_estimate_all_holes_when_no_stations():
    cfg = unit_cfg(bs_density=0.0, n_trials=50)
    est = estimate_success(cfg, SilencingPolicy.none())
    assert est.value == 0.0
    assert est.n_coverage_holes == 50


def test_estimate_ci_formula():
    cfg = unit_cfg(n_trials=400)
    est = estimate_success(cfg, SilencingPolicy.none())
    assert est.ci_halfwidth == pytest.approx(
        1.96 * math.sqrt(est.value * (1 - est.value) / 400), rel=1e-12
    )
    assert est.n_trials == 400
    assert est.master_seed == 7


def test_policy_identities_bit_exact():
    cfg = unit_cfg(n_trials=400, silencing_radius=9000.0)
    complete = estimate_success(cfg, SilencingPolicy.complete())
    assert estimate_success(cfg, SilencingPolicy.partial(0.0)) == complete
    assert estimate_success(cfg, SilencingPolicy.spectrum_split()) == complete
    none = estimate_success(cfg, SilencingPolicy.none())
    assert estimate_success(cfg, SilencingPolicy.partial(1.0)) == none


def test_crn_rho_monotonicity_per_trial_exact():
    cfg = unit_cfg(bs_density=1e-6, bs_survival_prob=0.5, silencing_radius=9000.0)
    rhos = [0.0, 0.25, 0.5, 0.75, 1.0]
    for t in range(150):
        net = build_network(cfg, t)
        sinrs = []
        for rho in rhos:
            policied = apply_policy(net, SilencingPolicy.partial(rho))
            res = uplink_trial(policied, cfg, trial_rng(cfg.master_seed, t, STREAM_UPLINK))
            sinrs.append(res.sinr)
        assert not any(math.isnan(s) for s in sinrs)
        for a, b in zip(sinrs, sinrs[1:]):
            assert a >= b  # more suppression never hurts the uplink


def test_crn_rho_monotonicity_of_estimates():
    cfg = unit_cfg(n_trials=400, silencing_radius=9000.0)
    values = [estimate_success(cfg, SilencingPolicy.partial(r)).value for r in (0.0, 0.3, 0.7, 1.0)]
    for a, b in zip(values, values[1:]):
        assert a >= b


def test_crn_silencing_radius_monotonicity():
    radii = [4000.0, 8000.0, 12000.0]
    base = unit_cfg(n_trials=1, silencing_radius=radii[0])
    for t in range(150):
        sinrs = []
        for r_s in radii:
            cfg = dataclasses.replace(base, silencing_radius=r_s)
            net = apply_policy(build_network(cfg, t), SilencingPolicy.complete())
            res = uplink_trial(net, cfg, trial_rng(cfg.master_seed, t, STREAM_UPLINK))
            sinrs.append(res.sinr)
        for a, b in zip(sinrs, sinrs[1:]):
            assert b >= a  # a wider silenced belt never hurts


def test_crn_silencing_radius_monotone_estimates():
    base = unit_cfg(n_trials=400)
    values = [
        estimate_success(dataclasses.replace(base, silencing_radius=r), SilencingPolicy.complete()).value
        for r in (4000.0, 8000.0, 16000.0)
    ]
    for a, b in zip(values, values[1:]):
        assert b >= a


def test_estimate_worker_invariance():
    cfg = unit_cfg(n_trials=3 * 64)  # enough trials for a pool of 3 workers
    single = estimate_success(cfg, SilencingPolicy.partial(0.5))
    multi = estimate_success(cfg, SilencingPolicy.partial(0.5), workers=3)
    assert single == multi


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    ring_edge=st.floats(700.0, 5000.0),
    small_width=st.floats(1.0, 20000.0),
    extra_width=st.floats(1.0, 30000.0),
    density=st.floats(1e-8, 2e-6),
    seed=st.integers(0, 2**64 - 1),
)
@example(ring_edge=2600.0, small_width=17400.0, extra_width=20000.0, density=4e-7, seed=17)
@example(ring_edge=2600.0, small_width=9400.0, extra_width=12000.0, density=1e-6, seed=7)
def test_sim_radius_extension_is_prefix_per_trial(ring_edge, small_width, extra_width, density, seed):
    # Each trial's stations and fading at the small sim_radius are a
    # bit-exact prefix of those at the extended one: growing the truncation
    # radius only appends exterior stations, all beyond the small radius.
    disaster_radius = ring_edge - 600.0
    ring_outer = disaster_radius + 600.0  # the config's ring edge, to the bit
    small_cfg = ScenarioConfig(
        disaster_radius=disaster_radius,
        active_ring_width=600.0,
        silencing_radius=ring_outer + small_width / 2,
        sim_radius=ring_outer + small_width,
        bs_density=density,
        bs_survival_prob=0.5,
        master_seed=seed,
    )
    big_cfg = dataclasses.replace(small_cfg, sim_radius=small_cfg.sim_radius + extra_width)
    trials = range(8)
    small, big = (netsim._sample_block(cfg, netsim._StreamPool(seed), trials, True) for cfg in (small_cfg, big_cfg))
    assert np.array_equal(big.device, small.device)
    assert np.array_equal(big.up_fading[0], small.up_fading[0])
    assert np.array_equal(big.down_draws[0], small.down_draws[0])
    assert np.array_equal(big.down_draws[1], small.down_draws[1])
    for i in range(len(trials)):
        lo, hi = small.bounds[i], small.bounds[i + 1]
        big_lo, big_hi = big.bounds[i], big.bounds[i + 1]
        n = hi - lo
        assert big_hi - big_lo >= n
        shared = slice(big_lo, big_lo + n)
        for field in ("x", "y", "alive", "exterior", "radius"):
            assert np.array_equal(getattr(big, field)[shared], getattr(small, field)[lo:hi]), field
        assert np.array_equal(big.up_fading[1][shared], small.up_fading[1][lo:hi])
        assert np.array_equal(big.down_draws[2][shared], small.down_draws[2][lo:hi])
        assert np.all(big.exterior[big_lo + n:big_hi])
        assert np.all(big.radius[big_lo + n:big_hi] >= small_cfg.sim_radius)


# ---------------------------------------------------------------------------
# downlink coverage
# ---------------------------------------------------------------------------

def test_downlink_interferer_set_enumeration_under_spectrum_split():
    # Two silencing-zone stations plus one outer station. Splitting the
    # spectrum removes exactly the outer station from the user's co-band
    # interferer set; with the outer station absent, the split and the
    # unsilenced network coincide.
    cfg = unit_cfg(silencing_radius=12000.0)
    user = np.array([3500.0, 0.0])
    three = snapshot_from_stations(
        [silencing_station(3000.0, 0.0), silencing_station(5000.0, 0.0), outer_station(15000.0, 0.0)]
    )
    pg = lambda d: path_gain(d, cfg.channel)

    none_sinr, s0 = downlink_sinr(three, cfg, user, Band.DISASTER_BAND, 1.0, np.ones(3))
    assert s0 == 0
    assert none_sinr == pytest.approx(pg(500.0) / (pg(1500.0) + pg(11500.0)), rel=1e-12)

    split = apply_policy(three, SilencingPolicy.spectrum_split())
    split_sinr, s1 = downlink_sinr(split, cfg, user, Band.ALTERNATE_BAND, 1.0, np.ones(3))
    assert s1 == 0
    assert split_sinr == pytest.approx(pg(500.0) / pg(1500.0), rel=1e-12)

    two = snapshot_from_stations(
        [silencing_station(3000.0, 0.0), silencing_station(5000.0, 0.0)]
    )
    none_without_outer, _ = downlink_sinr(two, cfg, user, Band.DISASTER_BAND, 1.0, np.ones(2))
    assert split_sinr == none_without_outer


def test_downlink_complete_never_beats_none_when_only_silencing_stations_exist():
    # With no reachable stations outside the silencing zone and noise on,
    # complete silencing leaves the user with no server at all.
    cfg = unit_cfg(
        silencing_radius=12000.0,
        channel=ChannelParams(path_loss_exponent=4.0, sinr_threshold=0.1, noise_power=1e-15),
    )
    net = snapshot_from_stations(
        [silencing_station(3000.0, 0.0), silencing_station(0.0, 5000.0)]
    )
    rng_seed = 99
    for t in range(200):
        rng_none = np.random.default_rng((rng_seed, t))
        rng_complete = np.random.default_rng((rng_seed, t))
        res_none = downlink_trial(apply_policy(net, SilencingPolicy.none()), cfg, SilencingPolicy.none(), rng_none)
        res_complete = downlink_trial(
            apply_policy(net, SilencingPolicy.complete()), cfg, SilencingPolicy.complete(), rng_complete
        )
        assert res_complete.coverage_hole
        assert res_complete.success <= res_none.success


def test_downlink_partial_scales_signal_and_interference():
    # All transmitters in the silencing zone: suppression cancels in the SIR
    # but lowers the SINR whenever noise is on.
    cfg_noise = unit_cfg(
        silencing_radius=12000.0,
        channel=ChannelParams(path_loss_exponent=4.0, sinr_threshold=0.1, noise_power=1e-14),
    )
    net = snapshot_from_stations(
        [silencing_station(3000.0, 0.0), silencing_station(5000.0, 0.0)]
    )
    user = np.array([3400.0, 0.0])
    sinrs = []
    for rho in (1.0, 0.5, 0.1):
        policied = apply_policy(net, SilencingPolicy.partial(rho))
        sinr, _ = downlink_sinr(policied, cfg_noise, user, Band.DISASTER_BAND, 1.0, np.ones(2))
        sinrs.append(sinr)
    assert sinrs[0] > sinrs[1] > sinrs[2]


def test_downlink_single_station_no_interference_always_covered():
    cfg = unit_cfg(silencing_radius=12000.0)
    net = snapshot_from_stations([silencing_station(3000.0, 0.0)])
    sinr, serving = downlink_sinr(net, cfg, np.array([4000.0, 0.0]), Band.DISASTER_BAND, 1.0, np.ones(1))
    assert serving == 0
    assert sinr == math.inf
    res = downlink_trial(net, cfg, SilencingPolicy.none(), np.random.default_rng(1))
    assert res.success


def test_downlink_zero_signal_without_interference_or_noise_is_undefined():
    # 0 / (0 + 0) has no SINR: the kernel reports no server instead of a value
    cfg = unit_cfg(silencing_radius=12000.0)
    net = snapshot_from_stations([silencing_station(3000.0, 0.0, tx_power=0.0)])
    sinr, serving = downlink_sinr(net, cfg, np.array([4000.0, 0.0]), Band.DISASTER_BAND, 1.0, np.ones(1))
    assert serving == -1
    assert math.isnan(sinr)


def test_uplink_zero_signal_without_interference_or_noise_is_undefined():
    # the downlink's rule: a silent device and no other transmitter is a hole
    cfg = unit_cfg(device_tx_power=0.0)
    net = snapshot_from_stations([disaster_station(100.0, 0.0), disaster_station(300.0, 0.0, tx_power=0.0)])
    sinr, serving = uplink_sinr(net, cfg, 1.0, np.ones(2))
    assert serving == -1
    assert math.isnan(sinr)
    res = uplink_trial(net, cfg, np.random.default_rng(1))
    assert (res.success, res.coverage_hole) == (False, True)


def test_downlink_coverage_estimate_runs():
    cfg = unit_cfg(n_trials=200, bs_density=1e-6, silencing_radius=9000.0)
    est = estimate_silencing_area_coverage(cfg, SilencingPolicy.none())
    assert 0.0 <= est.value <= 1.0
    est_split = estimate_silencing_area_coverage(cfg, SilencingPolicy.spectrum_split())
    assert 0.0 <= est_split.value <= 1.0


def test_downlink_estimate_worker_invariance():
    cfg = unit_cfg(n_trials=4 * 64, silencing_radius=9000.0)  # enough trials for a pool of 4 workers
    a = estimate_silencing_area_coverage(cfg, SilencingPolicy.partial(0.4))
    b = estimate_silencing_area_coverage(cfg, SilencingPolicy.partial(0.4), workers=4)
    assert a == b


# ---------------------------------------------------------------------------
# allocator: the engine keeps the heap it frees (_keep_freed_heap)
# ---------------------------------------------------------------------------

FIG5 = Path(__file__).resolve().parent.parent / "scenarios" / "paper_fig5.yaml"


def glibc_mallopt() -> bool:
    try:
        ctypes.CDLL(None).mallopt
    except (AttributeError, TypeError):
        return False
    return platform.libc_ver()[0] == "glibc"


def median_faults_per_call(call, warmup: int = 3, calls: int = 5) -> float:
    resource = pytest.importorskip("resource")
    for _ in range(warmup):
        call()
    faults = []
    for _ in range(calls):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        call()
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return float(np.median(faults))


@pytest.mark.skipif(not glibc_mallopt(), reason="the thresholds are glibc's mallopt parameters")
def test_steady_state_engine_calls_do_not_fault_their_heap_back_in():
    # With glibc's default trimming, each fig5 block faults its ~1 MB of
    # temporaries back in: 759-920 minor faults per 50-trial sweep call, and
    # 6.7-9.9k per 300-trial call at a 40-km truncation radius, whose arrays
    # (~512 KB) outgrow the default 128 KiB mmap threshold. Setting only
    # M_TRIM_THRESHOLD freezes that threshold, and the 40-km call then maps
    # and unmaps its arrays: 24-28k faults per call.
    spec = load_scenario(FIG5).silencing
    sweep_cfg = dataclasses.replace(spec.config, n_trials=50)
    far_cfg = dataclasses.replace(spec.config, n_trials=300, sim_radius=40000.0)
    assert median_faults_per_call(lambda: planner.sweep(sweep_cfg, spec.sweep.grid, spec.sweep.weights)) < 200
    assert median_faults_per_call(
        lambda: netsim.estimate_grid(far_cfg, (far_cfg.silencing_radius,), spec.policies)) < 1500


def test_engine_without_mallopt_gives_the_same_grid(monkeypatch):
    cfg = unit_cfg(n_trials=40, silencing_radius=9000.0)
    radii, policies = (6000.0, 9000.0), (SilencingPolicy.none(), SilencingPolicy.partial(0.4))
    expected = netsim.estimate_grid(cfg, radii, policies)
    opened, cdll = [], ctypes.CDLL

    def without_mallopt(name, *args, **kwargs):
        if name is not None:
            return cdll(name, *args, **kwargs)
        opened.append(name)
        return object()

    monkeypatch.setattr(ctypes, "CDLL", without_mallopt)
    monkeypatch.setattr(netsim, "_heap_kept", False)  # as in a process that has not run the engine yet
    assert netsim.estimate_grid(cfg, radii, policies) == expected
    assert opened == [None]
