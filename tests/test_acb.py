import math

import numpy as np
import pytest

from disastersim.acb import AccessClass, AcdcProfile, admitted_load, simulate_access


def profile(specs, monotone=False):
    return AcdcProfile(
        classes=tuple(
            AccessClass(name=f"class{i}", acdc_category=cat, arrival_rate=rate, admit_prob=p)
            for i, (cat, rate, p) in enumerate(specs)
        ),
        monotone=monotone,
    )


def test_class_validation():
    with pytest.raises(ValueError):
        AccessClass("x", 0, 1.0, 0.5)
    with pytest.raises(ValueError):
        AccessClass("x", 1, -1.0, 0.5)
    with pytest.raises(ValueError):
        AccessClass("x", 1, 1.0, 1.5)
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="acdc_category"):
            AccessClass("x", value, 1.0, 0.5)
        with pytest.raises(ValueError, match="arrival_rate"):
            AccessClass("x", 1, value, 0.5)
        with pytest.raises(ValueError, match="admit_prob"):
            AccessClass("x", 1, 1.0, value)


def test_profile_needs_classes():
    with pytest.raises(ValueError):
        AcdcProfile(classes=())


def test_monotone_profile_enforced():
    with pytest.raises(ValueError):
        profile([(1, 1.0, 0.2), (2, 1.0, 0.9)], monotone=True)
    # same shape passes without the option
    profile([(1, 1.0, 0.2), (2, 1.0, 0.9)], monotone=False)


def test_admitted_load_no_barring():
    metrics = admitted_load(profile([(1, 10.0, 1.0), (2, 5.0, 1.0)]))
    assert metrics.admitted_rates == (10.0, 5.0)
    assert metrics.total_admitted == 15.0
    assert metrics.overload_ratio is None


def test_admitted_load_hand_case():
    metrics = admitted_load(profile([(1, 10.0, 1.0), (2, 5.0, 0.5), (3, 2.0, 0.1)]))
    assert metrics.admitted_rates == pytest.approx((10.0, 2.5, 0.2))
    assert metrics.total_admitted == pytest.approx(12.7)


def test_admitted_load_full_barring():
    metrics = admitted_load(profile([(1, 10.0, 0.0), (2, 5.0, 0.0)]))
    assert metrics.total_admitted == 0.0


def test_admitted_load_overload_ratio():
    metrics = admitted_load(profile([(1, 10.0, 1.0)]), capacity=4.0)
    assert metrics.overload_ratio == pytest.approx(2.5)
    for capacity in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="capacity"):
            admitted_load(profile([(1, 1.0, 1.0)]), capacity=capacity)


def test_admitted_load_linear_in_admit_prob():
    lo = admitted_load(profile([(1, 8.0, 0.25)])).total_admitted
    hi = admitted_load(profile([(1, 8.0, 0.75)])).total_admitted
    assert hi == pytest.approx(3.0 * lo)


def test_total_admitted_non_increasing_when_a_prob_drops():
    base = admitted_load(profile([(1, 10.0, 0.8), (2, 5.0, 0.5)])).total_admitted
    lower = admitted_load(profile([(1, 10.0, 0.8), (2, 5.0, 0.3)])).total_admitted
    assert lower < base


def test_simulate_deterministic_for_fixed_seed():
    p = profile([(1, 10.0, 1.0), (2, 25.0, 0.6), (3, 40.0, 0.1)])
    a = simulate_access(p, 30.0, 100.0, np.random.default_rng(5))
    b = simulate_access(p, 30.0, 100.0, np.random.default_rng(5))
    assert a == b


def test_simulate_unconstrained_matches_mean_load():
    # Capacity far above the offered load: served rates land within 3 sigma
    # of the deterministic thinned means.
    p = profile([(1, 10.0, 1.0), (2, 25.0, 0.6), (3, 40.0, 0.1)])
    horizon = 500.0
    sim = simulate_access(p, 1e9, horizon, np.random.default_rng(11))
    mean = admitted_load(p)
    for cls, served, target in zip(p.classes, sim.served_rates, mean.admitted_rates):
        sigma = math.sqrt(cls.arrival_rate * cls.admit_prob / horizon)
        assert abs(served - target) < 3.0 * sigma
    assert sim.blocking == (0.0, 0.0, 0.0)


def test_simulate_capacity_cut_prefers_high_priority():
    # Budget covers the highest-priority class and part of the next one.
    p = profile([(1, 10.0, 1.0), (2, 20.0, 1.0), (3, 30.0, 1.0)])
    sim = simulate_access(p, 0.2, 100.0, np.random.default_rng(3))
    assert sim.blocking[0] <= sim.blocking[1] <= sim.blocking[2]
    assert sim.blocking[2] == 1.0  # lowest priority fully squeezed out
    assert sum(sim.served_counts) <= 20


def test_simulate_starving_capacity_blocks_everything_low():
    p = profile([(1, 5.0, 1.0), (2, 5.0, 1.0)])
    sim = simulate_access(p, 1e-4, 100.0, np.random.default_rng(4))
    assert sum(sim.served_counts) == 0
    assert sim.blocking == (1.0, 1.0)


def test_simulate_priority_order_ignores_listing_order():
    # The capacity fill follows acdc_category, not list position.
    p = AcdcProfile(
        classes=(
            AccessClass("low", 3, 50.0, 1.0),
            AccessClass("high", 1, 10.0, 1.0),
        )
    )
    sim = simulate_access(p, 0.12, 100.0, np.random.default_rng(8))
    assert sim.blocking[1] < sim.blocking[0]
    assert sim.served_counts[0] <= max(0, 12 - sim.served_counts[1])


def test_simulate_admission_monotone_in_category():
    # Aggregated over many runs, the empirical admission probability must
    # follow the monotone profile ordering within 3 sigma.
    p = profile([(1, 5.0, 0.9), (2, 5.0, 0.5), (3, 5.0, 0.2)], monotone=True)
    rng = np.random.default_rng(21)
    arrivals = np.zeros(3)
    admitted = np.zeros(3)
    for _ in range(10_000):
        sim = simulate_access(p, 1e9, 1.0, rng)
        arrivals += sim.arrival_counts
        admitted += sim.admitted_counts
    ratios = admitted / arrivals
    sigmas = np.sqrt(np.array([0.9 * 0.1, 0.5 * 0.5, 0.2 * 0.8]) / arrivals)
    assert ratios[0] - ratios[1] > -3.0 * math.hypot(sigmas[0], sigmas[1])
    assert ratios[1] - ratios[2] > -3.0 * math.hypot(sigmas[1], sigmas[2])
    for ratio, cls, sigma in zip(ratios, p.classes, sigmas):
        assert abs(ratio - cls.admit_prob) < 3.0 * sigma


def test_simulate_validates_inputs():
    p = profile([(1, 1.0, 1.0)])
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="capacity"):
            simulate_access(p, bad, 10.0, np.random.default_rng(0))
        with pytest.raises(ValueError, match="horizon"):
            simulate_access(p, 1.0, bad, np.random.default_rng(0))


def test_simulate_overload_ratio():
    p = profile([(1, 10.0, 1.0)])
    sim = simulate_access(p, 5.0, 200.0, np.random.default_rng(9))
    assert sim.overload_ratio == pytest.approx(sim.total_admitted / 5.0)
