#!/usr/bin/env python3
"""Calibration search for the paper_fig5 reference scenario.

The silencing ladder targets (uplink success 0.58 with no silencing, 0.82
with complete silencing, 0.68 at some partial factor, all at a -10 dB
threshold) do not pin down the station density, survival fraction, path
loss exponent, power ratio, suppression factor, or silencing radius, so
those are recovered by search:

  stage coarse  - scan (density, survival, alpha, silencing radius) and,
                  for each point, the BS:device power ratio that lands the
                  unsilenced success on 0.58; report the complete-silencing
                  success the point can reach.
  stage refine  - at one chosen point, bracket the partial suppression
                  factor at which the partial success crosses 0.68.
  stage verify  - re-run a committed scenario file at full trial count and
                  print the ladder.

The committed outcome of this search and the measured ladder live in
docs/calibration_fig5.md.
"""
import argparse
import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from disastersim.channel import ChannelParams
from disastersim.netsim import ScenarioConfig, SilencingPolicy, estimate_grid, estimate_success
from disastersim.scenario import load_scenario


def make_config(density, survival, alpha, radius, beta, n_trials, seed):
    return ScenarioConfig(
        disaster_radius=2000.0,
        active_ring_width=600.0,
        silencing_radius=radius,
        sim_radius=20000.0,
        bs_density=density,
        bs_survival_prob=survival,
        device_tx_power=0.2,
        bs_tx_power=0.2 * beta,
        channel=ChannelParams(path_loss_exponent=alpha, sinr_threshold=0.1),
        n_trials=n_trials,
        master_seed=seed,
    )


def uplink_ladder(cfg, policies):
    """Uplink estimates for every policy at cfg's silencing radius, in one pass."""
    return [up for up, _ in estimate_grid(cfg, (cfg.silencing_radius,), policies, downlink=False)[0]]


def solve_beta(density, survival, alpha, radius, n_trials, seed, target=0.58):
    """Bisect the BS:device power ratio until the unsilenced success hits target."""
    lo, hi = 1e-3, 1e3
    for _ in range(30):
        beta = (lo * hi) ** 0.5
        cfg = make_config(density, survival, alpha, radius, beta, n_trials, seed)
        p = estimate_success(cfg, SilencingPolicy.none()).value
        if p > target:
            lo = beta  # more interference needed to pull success down
        else:
            hi = beta
        if hi / lo < 1.01:
            break
    return (lo * hi) ** 0.5


def stage_coarse(n_trials, seed):
    print("density/km2  survival  alpha  radius_km  beta     none   complete")
    for density_km2 in (0.3, 0.4, 0.5):
        for survival in (0.03, 0.05, 0.08):
            for alpha in (3.0, 3.25):
                radius = 12000.0
                beta = solve_beta(density_km2 * 1e-6, survival, alpha, radius, n_trials, seed)
                cfg = make_config(density_km2 * 1e-6, survival, alpha, radius, beta, n_trials, seed)
                none, comp = uplink_ladder(cfg, (SilencingPolicy.none(), SilencingPolicy.complete()))
                p_none, p_comp = none.value, comp.value
                print(
                    f"{density_km2:>11} {survival:>9} {alpha:>6} {radius / 1000:>10} "
                    f"{beta:>7.3f} {p_none:>7.4f} {p_comp:>9.4f}"
                )


REFINE_STEPS = 12


def refine_rho(cfg, target):
    """The bracket [lo, lo + 2^-12] of the partial factor at which uplink
    success falls to target, from one pass over the dyadic grid k / 2^12.

    lo is the largest grid factor whose success exceeds target (0 if none
    does). Success is exactly non-increasing in rho under common random
    numbers, so this is the bracket a 12-step bisection finds, but scoring
    every grid factor costs one pass.
    """
    n = 2**REFINE_STEPS
    grid = [k / n for k in range(1, n)]
    ladder = uplink_ladder(cfg, [SilencingPolicy.partial(rho) for rho in grid])
    lo = max((rho for rho, est in zip(grid, ladder) if est.value > target), default=0.0)
    return lo, lo + 1 / n


def stage_refine(n_trials, seed, target=0.68):
    cfg = make_config(4e-7, 0.05, 3.0, 12000.0, 0.4, n_trials, seed)
    lo, hi = refine_rho(cfg, target)
    low, high = uplink_ladder(cfg, (SilencingPolicy.partial(lo), SilencingPolicy.partial(hi)))
    print(f"partial success {low.value:.4f} at rho={lo:.5f}, {high.value:.4f} at rho={hi:.5f}")
    print(f"rho* in [{lo:.5f}, {hi:.5f}]")


def stage_verify(scenario_path, trials_override):
    doc = load_scenario(scenario_path, trials_override=trials_override)
    cfg = doc.silencing.config
    print(f"scenario {doc.name}: n_trials={cfg.n_trials} seed={cfg.master_seed}")
    for policy, est in zip(doc.silencing.policies, uplink_ladder(cfg, doc.silencing.policies)):
        label = policy.kind if policy.kind != "partial" else f"partial({policy.rho})"
        print(
            f"{label:>16}: {est.value:.5f} +- {est.ci_halfwidth:.5f} "
            f"(coverage holes {est.n_coverage_holes})"
        )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("stage", choices=["coarse", "refine", "verify"])
    parser.add_argument("--trials", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=20260810)
    parser.add_argument(
        "--scenario", default=str(Path(__file__).resolve().parent.parent / "scenarios/paper_fig5.yaml")
    )
    args = parser.parse_args()
    if args.stage == "coarse":
        stage_coarse(args.trials, args.seed)
    elif args.stage == "refine":
        stage_refine(args.trials, args.seed)
    else:
        stage_verify(args.scenario, args.trials)


if __name__ == "__main__":
    main()
