"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured numbers (run with -s to see them live).

The silencing-ladder and truncation criteria run 100k Monte Carlo trials
each and dominate the suite's runtime (a few minutes on one core).
"""
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import disaster_station, outer_station, snapshot_from_stations
from disastersim.channel import SPEED_OF_LIGHT, ChannelParams, path_gain
from disastersim.cli import main, manifest_path
from disastersim.geometry import disk, sample_ppp
from disastersim.netsim import (
    STREAM_UPLINK,
    NetworkSnapshot,
    ScenarioConfig,
    SilencingPolicy,
    Zone,
    apply_policy,
    build_network,
    estimate_success,
    trial_rng,
    uplink_sinr,
    uplink_trial,
)
from disastersim.satwet import (
    ChargingModel,
    SatWetParams,
    charge_curve,
    charging_time,
    zenith_harvested_power,
)
from disastersim.scenario import load_scenario

FIG5_SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "paper_fig5.yaml"


def report(criterion: str, detail: str):
    print(f"ACCEPTANCE PASS [{criterion}] {detail}")


# ---------------------------------------------------------------------------
# 1. Friis link budget
# ---------------------------------------------------------------------------

def test_criterion_1_friis_budget():
    params = SatWetParams(
        frequency=868e6, sat_tx_power=100.0, sat_tx_gain=1e5,
        ground_rx_gain=1.0, rf_to_dc_efficiency=1.0, altitude=200e3,
    )
    power = zenith_harvested_power(params)
    wavelength = SPEED_OF_LIGHT / 868e6
    oracle = 100.0 * 1e5 * (wavelength / (4.0 * math.pi * 200e3)) ** 2
    assert power == pytest.approx(oracle, rel=1e-12)
    assert abs(power - 189.1e-9) / 189.1e-9 < 0.005

    loss_db = 20.0 * math.log10(4.0 * math.pi * 200e3 * 868e6 / SPEED_OF_LIGHT)
    assert abs(loss_db - 137.23) < 0.01
    report("criterion 1", f"zenith power {power * 1e9:.3f} nW, path loss {loss_db:.4f} dB")


# ---------------------------------------------------------------------------
# 2. charging-time anchors
# ---------------------------------------------------------------------------

def test_criterion_2_charging_anchors():
    p_harvest = 3e-9
    t400 = charging_time(ChargingModel(45e-12, 400.0), p_harvest)
    assert abs(t400 - 6.0) / 6.0 < 0.01

    t1k = charging_time(ChargingModel(45e-12, 1000.0), p_harvest)
    assert t1k < 60.0

    t1m = charging_time(ChargingModel(45e-12, 1e6), p_harvest)
    assert t1m > 3600.0
    assert t1m / 3600.0 == pytest.approx(4.1667, rel=1e-3)

    rows = charge_curve([200e3, 400e3], [400.0], SatWetParams(), ChargingModel(45e-12, 400.0), mode="zenith")
    assert rows[1].charging_time == 4.0 * rows[0].charging_time
    report(
        "criterion 2",
        f"400 b -> {t400:.2f} s, 1 kb -> {t1k:.1f} s, 1 Mb -> {t1m / 3600:.3f} h, 400 km = 4x 200 km",
    )


# ---------------------------------------------------------------------------
# 3. silencing ladder on the committed reference scenario
# ---------------------------------------------------------------------------

def test_criterion_3_silencing_ladder_100k():
    doc = load_scenario(FIG5_SCENARIO)
    cfg = doc.silencing.config
    assert cfg.n_trials == 100_000
    assert cfg.channel.sinr_threshold == pytest.approx(0.1)

    p_none = estimate_success(cfg, SilencingPolicy.none()).value
    p_partial = estimate_success(cfg, SilencingPolicy.partial(0.4)).value
    p_complete = estimate_success(cfg, SilencingPolicy.complete()).value

    assert abs(p_none - 0.58) <= 0.03
    assert abs(p_partial - 0.68) <= 0.03
    assert abs(p_complete - 0.82) <= 0.03
    # exact under common random numbers, not merely statistical
    assert p_none < p_partial < p_complete
    report(
        "criterion 3",
        f"none {p_none:.4f} (0.58+-0.03), partial(0.4) {p_partial:.4f} (0.68+-0.03), "
        f"complete {p_complete:.4f} (0.82+-0.03), ladder ordered",
    )


# ---------------------------------------------------------------------------
# 4. closed-form Rayleigh outage oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "tau,noise,p_dev",
    [(0.1, 1e-8, 1.0), (0.5, 1e-8, 1.0), (1.0, 2e-8, 1.0)],
    ids=["exp0.1", "exp0.5", "exp2.0"],
)
def test_criterion_4_rayleigh_outage(tau, noise, p_dev):
    d0, alpha = 100.0, 4.0
    net = snapshot_from_stations([disaster_station(d0, 0.0)])
    cfg = ScenarioConfig(
        device_tx_power=p_dev,
        bs_tx_power=0.0,
        channel=ChannelParams(path_loss_exponent=alpha, sinr_threshold=tau, noise_power=noise),
        n_trials=1,
        master_seed=0,
    )
    expected = math.exp(-tau * noise * d0**alpha / p_dev)
    rng = np.random.default_rng(808)
    n = 100_000
    hits = sum(uplink_trial(net, cfg, rng).success for _ in range(n))
    assert abs(hits / n - expected) < 0.01
    report("criterion 4", f"tau={tau} noise={noise}: {hits / n:.4f} vs exp(-x)={expected:.4f}")


# ---------------------------------------------------------------------------
# 5. exact policy identities
# ---------------------------------------------------------------------------

def test_criterion_5_policy_identities():
    cfg = dataclasses.replace(load_scenario(FIG5_SCENARIO).silencing.config, n_trials=2000)
    none = estimate_success(cfg, SilencingPolicy.none())
    complete = estimate_success(cfg, SilencingPolicy.complete())
    assert estimate_success(cfg, SilencingPolicy.partial(1.0)) == none
    assert estimate_success(cfg, SilencingPolicy.partial(0.0)) == complete
    assert estimate_success(cfg, SilencingPolicy.spectrum_split()) == complete
    report("criterion 5", "partial(1)==none, partial(0)==complete, spectrum_split==complete, bit-exact")


# ---------------------------------------------------------------------------
# 6. determinism under parallelism (CLI surface)
# ---------------------------------------------------------------------------

def test_criterion_6_worker_determinism(tmp_path):
    scenario = tmp_path / "sweep.yaml"
    scenario.write_text(
        """
name: parallel-check
seed: 4242
n_trials: 150
silencing:
  bs_density_per_m2: 1.0e-06
  bs_survival_prob: 0.5
  device_tx_power_w: 1.0
  bs_tx_power_w: 1.0
  sweep:
    rho_values: [0.0, 1.0]
    silencing_radii_m: [5000.0, 9000.0]
""",
        encoding="utf-8",
    )
    out1, out8 = tmp_path / "w1.csv", tmp_path / "w8.csv"
    assert main(["silencing-sweep", "--scenario", str(scenario), "--out", str(out1), "--workers", "1"]) == 0
    assert main(["silencing-sweep", "--scenario", str(scenario), "--out", str(out8), "--workers", "8"]) == 0
    assert out1.read_bytes() == out8.read_bytes()
    assert manifest_path(out1).read_bytes() == manifest_path(out8).read_bytes()
    report("criterion 6", "silencing-sweep bytes identical for --workers 1 vs --workers 8")


# ---------------------------------------------------------------------------
# 7. hand-layout SINR
# ---------------------------------------------------------------------------

def test_criterion_7_hand_layout_sinr():
    cfg = ScenarioConfig(
        device_tx_power=1.0, bs_tx_power=1.0,
        channel=ChannelParams(path_loss_exponent=4.0, sinr_threshold=0.1),
        n_trials=1, master_seed=0,
    )
    net = snapshot_from_stations(
        [disaster_station(100.0, 0.0), outer_station(500.0, 0.0)]
    )
    sinr, serving = uplink_sinr(net, cfg, 1.0, np.ones(2))
    assert serving == 0
    assert sinr == 256.0
    assert 10.0 * math.log10(sinr) == pytest.approx(24.082, abs=1e-3)
    assert sinr >= cfg.channel.sinr_threshold  # -10 dB threshold: success

    three = snapshot_from_stations(
        [disaster_station(100.0, 0.0), outer_station(500.0, 0.0), outer_station(-300.0, 0.0)]
    )
    sinr3, _ = uplink_sinr(three, cfg, 1.0, np.ones(3))
    expected = path_gain(100.0, cfg.channel) / (
        path_gain(400.0, cfg.channel) + path_gain(400.0, cfg.channel)
    )
    assert sinr3 == pytest.approx(expected, rel=1e-12)
    report("criterion 7", f"two-station SIR exactly 256 (24.08 dB); three-station case {sinr3:.4f}")


# ---------------------------------------------------------------------------
# 8. property suite
# ---------------------------------------------------------------------------

def test_criterion_8a_crn_rho_monotone_exact():
    cfg = dataclasses.replace(load_scenario(FIG5_SCENARIO).silencing.config, n_trials=1)
    rhos = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    checked = 0
    for t in range(120):
        net = build_network(cfg, t)
        sinrs = [
            uplink_trial(
                apply_policy(net, SilencingPolicy.partial(rho)),
                cfg,
                trial_rng(cfg.master_seed, t, STREAM_UPLINK),
            ).sinr
            for rho in rhos
        ]
        if any(math.isnan(s) for s in sinrs):
            continue  # coverage hole: no SINR defined under any policy
        checked += 1
        for a, b in zip(sinrs, sinrs[1:]):
            assert a >= b
    assert checked > 100
    report("criterion 8a", f"per-trial SINR non-increasing in rho on {checked} trials, exact")


def test_criterion_8b_crn_radius_monotone_exact():
    base = dataclasses.replace(load_scenario(FIG5_SCENARIO).silencing.config, n_trials=1)
    radii = [4000.0, 8000.0, 12000.0, 16000.0]
    checked = 0
    for t in range(120):
        sinrs = []
        for r_s in radii:
            cfg = dataclasses.replace(base, silencing_radius=r_s)
            net = apply_policy(build_network(cfg, t), SilencingPolicy.complete())
            sinrs.append(uplink_trial(net, cfg, trial_rng(cfg.master_seed, t, STREAM_UPLINK)).sinr)
        if any(math.isnan(s) for s in sinrs):
            continue
        checked += 1
        for a, b in zip(sinrs, sinrs[1:]):
            assert b >= a
    assert checked > 100
    report("criterion 8b", f"per-trial SINR non-decreasing in silencing radius on {checked} trials, exact")


def test_criterion_8c_ppp_count_statistics():
    region = disk(2000.0)
    lam_area = 2e-6 * region.area
    rng = np.random.default_rng(6060)
    counts = np.array([sample_ppp(region, 2e-6, rng).shape[0] for _ in range(10_000)])
    mean_gap = abs(counts.mean() - lam_area)
    assert mean_gap < 3.0 * math.sqrt(lam_area / counts.size)
    assert abs(counts.var() - lam_area) < 0.1 * lam_area
    report("criterion 8c", f"PPP mean {counts.mean():.3f} vs {lam_area:.3f}, var {counts.var():.3f}")


def test_criterion_8d_fading_unit_mean():
    rng = np.random.default_rng(7070)
    mean = rng.exponential(size=100_000).mean()
    assert abs(mean - 1.0) < 0.01
    report("criterion 8d", f"fading mean {mean:.4f} within 1% of 1")


def _success_pair_under_truncation(cfg_small: ScenarioConfig, cfg_big: ScenarioConfig, n: int):
    """Success counts at both truncation radii from one pass over the bigger
    network. The exterior is radius-ascending and fading draws are
    prefix-stable, so trimming the big realization is bit-identical to
    simulating the small one (asserted against the public path below)."""
    tau = cfg_small.channel.sinr_threshold
    s_small = s_big = 0
    for t in range(n):
        net = build_network(cfg_big, t)
        rng = trial_rng(cfg_big.master_seed, t, STREAM_UPLINK)
        g = rng.exponential()
        h = rng.exponential(size=net.n_bs)
        sinr_big, serving = uplink_sinr(net, cfg_big, g, h)
        s_big += serving >= 0 and sinr_big >= tau

        inner = int(((net.zone == Zone.DISASTER) | (net.zone == Zone.ACTIVE_RING)).sum())
        ext_r = np.hypot(net.xy[inner:, 0], net.xy[inner:, 1])
        keep = inner + int(np.searchsorted(ext_r, cfg_small.sim_radius, side="right"))
        trimmed = NetworkSnapshot(
            net.xy[:keep], net.zone[:keep], net.altitude[:keep], net.tx_power[:keep],
            net.power_factor[:keep], net.band[:keep], net.alive[:keep], net.device_xy,
        )
        sinr_small, serving_small = uplink_sinr(trimmed, cfg_small, g, h[:keep])
        s_small += serving_small >= 0 and sinr_small >= tau
    return s_small, s_big


def test_criterion_8e_truncation_stability_100k():
    cfg20 = ScenarioConfig(
        device_tx_power=1.0, bs_tx_power=1.0, sim_radius=20000.0,
        n_trials=100_000, master_seed=55,
    )
    cfg40 = dataclasses.replace(cfg20, sim_radius=40000.0)

    # the one-pass evaluator must agree bit-for-bit with the public path
    n_check = 400
    s_small, s_big = _success_pair_under_truncation(cfg20, cfg40, n_check)
    cfg_chk = dataclasses.replace(cfg20, n_trials=n_check)
    assert s_small / n_check == estimate_success(cfg_chk, SilencingPolicy.none()).value
    cfg_chk40 = dataclasses.replace(cfg40, n_trials=n_check)
    assert s_big / n_check == estimate_success(cfg_chk40, SilencingPolicy.none()).value

    n = cfg20.n_trials
    s20, s40 = _success_pair_under_truncation(cfg20, cfg40, n)
    p20, p40 = s20 / n, s40 / n
    ci = 1.96 * math.sqrt(p20 * (1.0 - p20) / n)
    assert abs(p20 - p40) < ci
    report(
        "criterion 8e",
        f"doubling sim_radius moves success {p20:.5f} -> {p40:.5f} "
        f"(|diff| {abs(p20 - p40):.5f} < CI {ci:.5f}) at 100k trials",
    )
