import math

import numpy as np
import pytest

from conftest import silencing_station, snapshot_from_stations
from disastersim.channel import ChannelParams
from disastersim.netsim import (
    Band,
    ScenarioConfig,
    SilencingPolicy,
    apply_policy,
    downlink_sinr,
    estimate_silencing_area_coverage,
    estimate_success,
)
from disastersim.planner import SweepGrid, SweepRow, TradeoffWeights, optimize_tradeoff, sweep, utility


def small_cfg(**overrides):
    base = dict(
        bs_density=1e-6,
        bs_survival_prob=0.5,
        device_tx_power=1.0,
        bs_tx_power=1.0,
        channel=ChannelParams(path_loss_exponent=4.0, sinr_threshold=0.1),
        n_trials=250,
        master_seed=99,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def test_grid_validation():
    with pytest.raises(ValueError):
        SweepGrid((), (6000.0,))
    with pytest.raises(ValueError):
        SweepGrid((0.5, 0.2), (6000.0,))  # not ascending
    with pytest.raises(ValueError):
        SweepGrid((0.2, 0.2), (6000.0,))  # not unique
    with pytest.raises(ValueError, match="rho must be in"):
        SweepGrid((0.2, 1.5), (6000.0,))  # outside [0, 1]


def test_weights_validation():
    with pytest.raises(ValueError):
        TradeoffWeights(-1.0, 1.0)
    with pytest.raises(ValueError):
        TradeoffWeights(0.0, 0.0)
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            TradeoffWeights(value, 1.0)
        with pytest.raises(ValueError, match="finite"):
            TradeoffWeights(1.0, value)


def test_utility_projections():
    assert utility(1.0, 0.0, TradeoffWeights(1.0, 0.0)) == 1.0
    assert utility(0.3, 0.9, TradeoffWeights(0.0, 1.0)) == 0.9


def test_utility_weighted_sum():
    assert utility(0.82, 0.40, TradeoffWeights(1.0, 1.0)) == pytest.approx(1.22, rel=1e-12)


def test_utility_rejects_bad_probability():
    with pytest.raises(ValueError):
        utility(1.2, 0.5, TradeoffWeights())


def test_utility_monotone_in_each_argument():
    w = TradeoffWeights(0.7, 0.3)
    assert utility(0.6, 0.5, w) > utility(0.5, 0.5, w)
    assert utility(0.5, 0.6, w) > utility(0.5, 0.5, w)


def test_sweep_single_point_matches_direct_estimates():
    cfg = small_cfg(silencing_radius=8000.0)
    grid = SweepGrid((0.5,), (8000.0,))
    (row,) = sweep(cfg, grid)
    up = estimate_success(cfg, SilencingPolicy.partial(0.5))
    down = estimate_silencing_area_coverage(cfg, SilencingPolicy.partial(0.5))
    assert row.p_disaster == up.value
    assert row.p_disaster_ci == up.ci_halfwidth
    assert row.p_silencing == down.value
    assert row.utility == utility(up.value, down.value, TradeoffWeights())


def test_sweep_row_order_and_count():
    cfg = small_cfg(n_trials=60)
    grid = SweepGrid((0.0, 1.0), (4000.0, 6000.0, 9000.0))
    rows = sweep(cfg, grid)
    assert [(r.rho, r.silencing_radius) for r in rows] == [
        (0.0, 4000.0), (0.0, 6000.0), (0.0, 9000.0),
        (1.0, 4000.0), (1.0, 6000.0), (1.0, 9000.0),
    ]


def test_sweep_p_disaster_monotone_in_rho():
    cfg = small_cfg()
    rows = sweep(cfg, SweepGrid((0.0, 0.5, 1.0), (8000.0,)))
    assert rows[0].p_disaster >= rows[1].p_disaster >= rows[2].p_disaster


def test_sweep_p_disaster_monotone_in_radius_at_full_silencing():
    cfg = small_cfg()
    rows = sweep(cfg, SweepGrid((0.0,), (4000.0, 9000.0, 16000.0)))
    assert rows[0].p_disaster <= rows[1].p_disaster <= rows[2].p_disaster


def test_sweep_reproducible_bit_exact():
    cfg = small_cfg(n_trials=80)
    grid = SweepGrid((0.0, 1.0), (5000.0, 9000.0))
    assert sweep(cfg, grid) == sweep(cfg, grid)


def test_sweep_rejects_radius_inside_ring():
    with pytest.raises(ValueError):
        sweep(small_cfg(), SweepGrid((0.5,), (2500.0,)))


def test_optimize_single_point():
    cfg = small_cfg(n_trials=60, silencing_radius=7000.0)
    grid = SweepGrid((0.3,), (7000.0,))
    best = optimize_tradeoff(cfg, grid, TradeoffWeights(1.0, 1.0))
    assert (best.rho, best.silencing_radius) == (0.3, 7000.0)


def test_optimize_disaster_only_weights_prefer_strongest_silencing():
    # With weight only on the disaster-area uplink, common random numbers
    # make (min rho, max radius) the exact argmax.
    cfg = small_cfg(n_trials=300)
    grid = SweepGrid((0.0, 0.5, 1.0), (4000.0, 8000.0, 16000.0))
    best = optimize_tradeoff(cfg, grid, TradeoffWeights(1.0, 0.0))
    assert best.rho == 0.0
    assert best.silencing_radius == 16000.0


def test_optimize_returns_member_row():
    cfg = small_cfg(n_trials=60)
    grid = SweepGrid((0.0, 1.0), (5000.0, 9000.0))
    w = TradeoffWeights(0.5, 0.5)
    rows = sweep(cfg, grid, w)
    assert optimize_tradeoff(cfg, grid, w) in rows


def test_optimize_tie_breaks():
    rows = [
        SweepRow(0.5, 8000.0, 0.6, 0.0, 0.4, 0.0, 1.0, 10, 0),
        SweepRow(0.0, 8000.0, 0.7, 0.0, 0.3, 0.0, 1.0, 10, 0),  # larger p_disaster wins
        SweepRow(0.0, 4000.0, 0.7, 0.0, 0.3, 0.0, 1.0, 10, 0),  # then smaller radius
        SweepRow(0.2, 4000.0, 0.7, 0.0, 0.3, 0.0, 1.0, 10, 0),  # then smaller rho? no: 0.0 < 0.2
    ]
    best = max(rows, key=lambda r: (r.utility, r.p_disaster, -r.silencing_radius, -r.rho))
    assert (best.rho, best.silencing_radius) == (0.0, 4000.0)


def test_full_power_optimal_for_coverage_only_weights_on_hand_layout():
    # Layout where every transmitter sits in the silencing zone and noise is
    # on: suppression can only lower the user's SINR, so rho = 1 dominates
    # per sample and a coverage-only objective picks it.
    cfg = small_cfg(
        silencing_radius=12000.0,
        channel=ChannelParams(path_loss_exponent=4.0, sinr_threshold=0.1, noise_power=1e-14),
    )
    net = snapshot_from_stations(
        [silencing_station(3000.0, 0.0), silencing_station(0.0, 6000.0)]
    )
    rng = np.random.default_rng(5)
    for _ in range(100):
        user = np.array([rng.uniform(2600.0, 9000.0), 0.0])
        g = rng.exponential()
        h = rng.exponential(size=2)
        sinrs = [
            downlink_sinr(apply_policy(net, SilencingPolicy.partial(rho)), cfg, user, Band.DISASTER_BAND, g, h)[0]
            for rho in (0.2, 0.6, 1.0)
        ]
        assert sinrs[0] <= sinrs[1] <= sinrs[2]
