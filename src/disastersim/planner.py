"""Parameter sweeps over silencing factor and radius, and the linear
interference-vs-coverage trade-off optimizer.

The whole grid is one call of the Monte Carlo engine's grid evaluator: each
trial is sampled once and scored at every point, so the table is evaluated
under common random numbers and the exact per-trial orderings of the engine
hold row to row.
"""
from __future__ import annotations

from dataclasses import dataclass

from .netsim import ScenarioConfig, SilencingPolicy, estimate_grid

__all__ = [
    "SweepGrid",
    "TradeoffWeights",
    "SweepRow",
    "utility",
    "sweep",
    "optimize_tradeoff",
]


@dataclass(frozen=True)
class SweepGrid:
    """Grid of suppression factors and silencing radii to evaluate."""

    rho_values: tuple[float, ...]
    silencing_radii: tuple[float, ...]  # meters

    def __post_init__(self):
        object.__setattr__(self, "rho_values", tuple(self.rho_values))
        object.__setattr__(self, "silencing_radii", tuple(self.silencing_radii))
        for name, values in (("rho_values", self.rho_values), ("silencing_radii", self.silencing_radii)):
            if not values:
                raise ValueError(f"{name} must be nonempty")
            if list(values) != sorted(set(values)):
                raise ValueError(f"{name} must be strictly ascending and unique")
        if self.rho_values[0] < 0.0 or self.rho_values[-1] > 1.0:
            raise ValueError("rho_values must lie in [0, 1]")


@dataclass(frozen=True)
class TradeoffWeights:
    """Linear scalarization weights for the two coverage objectives."""

    w_disaster: float = 1.0
    w_silencing_area: float = 1.0

    def __post_init__(self):
        if self.w_disaster < 0.0 or self.w_silencing_area < 0.0:
            raise ValueError("weights must be >= 0")
        if self.w_disaster + self.w_silencing_area <= 0.0:
            raise ValueError("at least one weight must be positive")


@dataclass(frozen=True)
class SweepRow:
    """One grid point of a sweep: both coverage estimates and their utility."""

    rho: float
    silencing_radius: float
    p_disaster: float
    p_disaster_ci: float
    p_silencing: float
    p_silencing_ci: float
    utility: float
    n_trials: int
    master_seed: int


def utility(p_disaster: float, p_silencing_area: float, weights: TradeoffWeights) -> float:
    """Weighted sum of the two coverage probabilities."""
    if not (0.0 <= p_disaster <= 1.0 and 0.0 <= p_silencing_area <= 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    return weights.w_disaster * p_disaster + weights.w_silencing_area * p_silencing_area


def sweep(
    cfg: ScenarioConfig,
    grid: SweepGrid,
    weights: TradeoffWeights = TradeoffWeights(),
    workers: int = 1,
) -> list[SweepRow]:
    """One row per (rho, silencing_radius) grid point, in grid order.

    Rows iterate rho-major (all radii for the first rho, then the next).
    Every point is scored on the same realizations, each sampled once per
    trial, so p_disaster is exactly non-increasing in rho along a fixed
    radius and exactly non-decreasing in radius at rho = 0. A radius outside
    (disaster_radius + active_ring_width, sim_radius] raises ScenarioError:
    at the lower end the silencing area is empty.
    """
    policies = [SilencingPolicy.partial(rho) for rho in grid.rho_values]
    points = estimate_grid(cfg, grid.silencing_radii, policies, workers)
    rows = []
    for j, rho in enumerate(grid.rho_values):
        for k, r_s in enumerate(grid.silencing_radii):
            p_dis, p_sil = points[k][j]
            rows.append(
                SweepRow(
                    rho=rho,
                    silencing_radius=r_s,
                    p_disaster=p_dis.value,
                    p_disaster_ci=p_dis.ci_halfwidth,
                    p_silencing=p_sil.value,
                    p_silencing_ci=p_sil.ci_halfwidth,
                    utility=utility(p_dis.value, p_sil.value, weights),
                    n_trials=cfg.n_trials,
                    master_seed=cfg.master_seed,
                )
            )
    return rows


def optimize_tradeoff(
    cfg: ScenarioConfig,
    grid: SweepGrid,
    weights: TradeoffWeights,
    workers: int = 1,
) -> SweepRow:
    """The sweep row maximizing the utility.

    Ties break toward larger p_disaster, then smaller silencing radius,
    then smaller rho. The result is always an evaluated grid row, never an
    interpolation.
    """
    rows = sweep(cfg, grid, weights, workers=workers)
    return max(rows, key=lambda r: (r.utility, r.p_disaster, -r.silencing_radius, -r.rho))
