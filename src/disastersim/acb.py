"""Application-class barring: per-class admission probabilities and their
effect on the load a congested post-disaster cell actually carries.

Classes carry an ACDC category (1 = highest priority). Admission is a
static per-class probability; when admitted traffic exceeds cell capacity,
the overflow is dropped lowest-priority-first so category 1 is squeezed
out last.
"""
from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

__all__ = [
    "AccessClass",
    "AcdcProfile",
    "AccessMetrics",
    "AccessSimulation",
    "admitted_load",
    "simulate_access",
]


@dataclass(frozen=True)
class AccessClass:
    """One application class: its ACDC category, offered load and barring."""

    name: str
    acdc_category: int  # 1 = highest priority
    arrival_rate: float  # requests/s
    admit_prob: float  # probability a request passes barring

    def __post_init__(self):
        if not 1 <= self.acdc_category < math.inf:
            raise ValueError(f"acdc_category must be >= 1 and finite, got {self.acdc_category}")
        if not 0.0 <= self.arrival_rate < math.inf:
            raise ValueError(f"arrival_rate must be >= 0 and finite, got {self.arrival_rate}")
        if not 0.0 <= self.admit_prob <= 1.0:
            raise ValueError(f"admit_prob must be in [0, 1], got {self.admit_prob}")


@dataclass(frozen=True)
class AcdcProfile:
    """A set of access classes, optionally enforced monotone: a higher-priority
    (lower-numbered) category never has a smaller admission probability."""

    classes: tuple[AccessClass, ...]
    monotone: bool = False

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        if not self.classes:
            raise ValueError("profile needs at least one class")
        if self.monotone:
            by_cat = sorted(self.classes, key=lambda c: c.acdc_category)
            for prev, nxt in zip(by_cat, by_cat[1:]):
                if prev.admit_prob < nxt.admit_prob:
                    raise ValueError(
                        f"monotone profile violated: category {prev.acdc_category} "
                        f"({prev.admit_prob}) admits less than category "
                        f"{nxt.acdc_category} ({nxt.admit_prob})"
                    )


@dataclass(frozen=True)
class AccessMetrics:
    """Mean-value admitted load; overload_ratio is None without a capacity."""

    class_names: tuple[str, ...]
    admitted_rates: tuple[float, ...]  # requests/s, barring applied
    total_admitted: float
    overload_ratio: float | None = None


@dataclass(frozen=True)
class AccessSimulation:
    """One stochastic realization of barring plus capacity-limited service."""

    class_names: tuple[str, ...]
    arrival_counts: tuple[int, ...]
    admitted_counts: tuple[int, ...]  # passed barring
    served_counts: tuple[int, ...]  # survived the capacity cut
    blocking: tuple[float, ...]  # fraction of admitted requests dropped
    admitted_rates: tuple[float, ...]  # per s over the horizon
    served_rates: tuple[float, ...]
    total_admitted: float  # requests/s
    overload_ratio: float


def admitted_load(profile: AcdcProfile, capacity: float | None = None) -> AccessMetrics:
    """Deterministic mean load after barring: admit_prob * arrival_rate per class."""
    rates = tuple(c.admit_prob * c.arrival_rate for c in profile.classes)
    total = sum(rates)
    ratio = None
    if capacity is not None:
        if not 0.0 < capacity < math.inf:
            raise ValueError(f"capacity must be > 0 and finite, got {capacity}")
        ratio = total / capacity
    return AccessMetrics(
        class_names=tuple(c.name for c in profile.classes),
        admitted_rates=rates,
        total_admitted=total,
        overload_ratio=ratio,
    )


def simulate_access(
    profile: AcdcProfile,
    capacity: float,
    horizon: float,
    rng: np.random.Generator,
) -> AccessSimulation:
    """Poisson arrivals per class over the horizon, thinned by admit_prob,
    then cut to capacity * horizon served requests, filling highest priority
    (lowest category) first. Deterministic for a fixed generator state; draw
    order follows profile order (arrivals then admissions per class)."""
    if not 0.0 < capacity < math.inf:
        raise ValueError(f"capacity must be > 0 and finite, got {capacity}")
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"horizon must be > 0 and finite, got {horizon}")

    arrivals = []
    admitted = []
    for c in profile.classes:
        n = int(rng.poisson(c.arrival_rate * horizon))
        arrivals.append(n)
        admitted.append(int(rng.binomial(n, c.admit_prob)) if n else 0)

    budget = capacity * horizon
    served = [0] * len(profile.classes)
    order = sorted(range(len(profile.classes)), key=lambda i: (profile.classes[i].acdc_category, i))
    for i in order:
        take = min(admitted[i], int(budget))
        served[i] = take
        budget -= take

    blocking = tuple(
        0.0 if admitted[i] == 0 else 1.0 - served[i] / admitted[i]
        for i in range(len(profile.classes))
    )
    total_admitted = sum(admitted) / horizon
    return AccessSimulation(
        class_names=tuple(c.name for c in profile.classes),
        arrival_counts=tuple(arrivals),
        admitted_counts=tuple(admitted),
        served_counts=tuple(served),
        blocking=blocking,
        admitted_rates=tuple(a / horizon for a in admitted),
        served_rates=tuple(s / horizon for s in served),
        total_admitted=total_admitted,
        overload_ratio=total_admitted / capacity,
    )
