"""Origin-centred annuli and homogeneous Poisson point process sampling.

All distances are double-precision meters; densities are points per square
meter. Every region is an annulus (a disk when r_inner = 0) centred at the
origin. A point set is a float64 array of shape (n, 2) whose row order is
the generation order, deterministic for a fixed generator state.

Sampling is two steps. A draw consumes the generator: a point count where
there is one, then each point's radial coordinate and angle fraction. A
placement turns those into coordinates with no generator at all: the
annulus inverse CDF or the radial arrival transform, then cos/sin.
sample_ppp is one draw and one placement; netsim makes its own draws and
places them with the same helpers. Consecutive uniform draws are one
generator call: NumPy's random(a) then random(b) returns the numbers of
random(a + b), because each double is made from the next 64-bit word of
the stream, so n points' radius and angle fractions are one random(2n).

Placement is elementwise, and NumPy's sqrt, cos and sin give the same bits
for an element whatever the length of the array it sits in (0 mismatches
over 13.7M points in 2000 random ragged concatenations, NumPy 2.4 on an
AVX-512 Xeon), so the draws of many realizations may be concatenated and
placed in one call with exactly the coordinates each would get on its own;
netsim places a whole block of trials that way. sqrt is correctly rounded,
but cos and sin are not, and theirs are the C library's: on that Xeon,
np.cos and np.sin equal math.cos and math.sin elementwise over 1M angles in
[0, 2 pi) (glibc 2.36). So coordinates are bit-exact per platform libm.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Annulus",
    "disk",
    "sample_ppp",
]


@dataclass(frozen=True)
class Annulus:
    """Closed annulus r_inner <= ||p|| <= r_outer; a disk when r_inner = 0."""

    r_inner: float
    r_outer: float

    def __post_init__(self):
        if not (math.isfinite(self.r_inner) and math.isfinite(self.r_outer)):
            raise ValueError("annulus radii must be finite")
        if self.r_inner < 0:
            raise ValueError(f"r_inner must be >= 0, got {self.r_inner}")
        if self.r_outer <= self.r_inner:
            raise ValueError(f"r_outer must exceed r_inner, got [{self.r_inner}, {self.r_outer}]")

    @property
    def area(self) -> float:
        return math.pi * (self.r_outer**2 - self.r_inner**2)


def disk(radius: float) -> Annulus:
    """Disk of the given radius, the r_inner = 0 special case of an annulus."""
    return Annulus(0.0, radius)


def _annulus_radius(region: Annulus, u_radius: np.ndarray) -> np.ndarray:
    # Inverse CDF on the radius makes placement exact and rejection-free:
    # P(r <= x) is proportional to x^2 - r_inner^2 on an annulus.
    return np.sqrt(region.r_inner**2 + u_radius * (region.r_outer**2 - region.r_inner**2))


def _radial_radius(region: Annulus, density: float, measure: np.ndarray) -> np.ndarray:
    # An arrival at cumulative expected count m lies where the annulus from
    # r_inner out to r holds m points: density * pi * (r^2 - r_inner^2) = m.
    # Each step (division by a positive constant, adding a constant, sqrt)
    # is correctly rounded and so monotone: r never decreases where m does not.
    r = measure / (density * math.pi)
    r += region.r_inner**2
    return np.sqrt(r, out=r)


def _polar_to_xy(r: np.ndarray, u_angle: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) = r * (cos, sin) of the angle 2 pi u_angle, as two arrays."""
    theta = 2.0 * math.pi * u_angle
    x = np.cos(theta)
    x *= r
    y = np.sin(theta, out=theta)
    y *= r
    return x, y


def _place(region: Annulus, u_radius: np.ndarray, u_angle: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) of the points with these radius and angle fractions on the region."""
    return _polar_to_xy(_annulus_radius(region, u_radius), u_angle)


# Exponential gaps drawn per step of _arrivals. The block size decides how
# the generator stream is consumed, so it is fixed: changing it changes
# every realization that has exterior stations.
_ARRIVAL_BLOCK = 256


def _arrivals(target: float, rng: np.random.Generator) -> tuple[int, list[np.ndarray], list[np.ndarray]]:
    """The arrivals of a unit-rate process on [0, target]: their count, and
    their cumulative arrival counts and angle fractions in steps.

    Each step draws _ARRIVAL_BLOCK exponential gaps, then as many angle
    fractions. The counts are one sequential sum across the steps: a step's
    first gap is added to the count before it and the step is summed in
    place, which gives the bits of one cumsum over every gap drawn. Drawing
    stops at the first step whose last count reaches the target, and that
    step keeps its counts <= target, a prefix because they never decrease.
    So a larger target, from the same generator state, keeps these arrivals
    and appends more: the ascending-radius construction (Haenggi 2012) that
    makes truncation radii comparable under common random numbers.
    """
    measure: list[np.ndarray] = []
    angles: list[np.ndarray] = []
    last = 0.0
    while last < target:
        gaps = rng.exponential(size=_ARRIVAL_BLOCK)
        gaps[0] += last
        np.add.accumulate(gaps, out=gaps)  # np.cumsum's sum, without its copy for out=gaps
        measure.append(gaps)
        angles.append(rng.random(_ARRIVAL_BLOCK))
        last = gaps.item(-1)
    if not measure:
        return 0, measure, angles
    inside = int(measure[-1].searchsorted(target, side="right"))
    measure[-1], angles[-1] = measure[-1][:inside], angles[-1][:inside]
    return _ARRIVAL_BLOCK * (len(measure) - 1) + inside, measure, angles


def sample_ppp(region: Annulus, density: float, rng: np.random.Generator) -> np.ndarray:
    """Sample a homogeneous PPP on the region.

    Point count is Poisson(density * area); points are i.i.d. uniform on the
    region. Draw order is fixed (count, radii, angles) so the result is fully
    determined by the generator state; density 0 draws nothing.
    """
    if not 0 <= density < math.inf:
        raise ValueError(f"density must be >= 0 and finite, got {density}")
    count = rng.poisson(density * region.area) if density > 0.0 else 0
    u = rng.random(2 * count)
    return np.column_stack(_place(region, u[:count], u[count:]))
