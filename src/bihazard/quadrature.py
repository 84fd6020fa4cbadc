"""Tensor-product midpoint quadrature on planar regions, with dyadic refinement.

`mesh_sum` evaluates on row blocks of at most 2^16 mesh points (`_BLOCK_POINTS`) and equals the
whole mesh's `vals.sum()` bit for bit: a power-of-two k combines the block sums pairwise, as NumPy
sums the whole mesh; any other k fills one (k, k) value array by blocks and sums it once.
`mesh_values` keeps f on a whole mesh, so the compensator evaluates its sample-free factors once
per run; by the invariant above, its whole-mesh product sums to what `mesh_sum` would give.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError
from .geometry import LowerRect, Region, lattice

_BLOCK_POINTS = 1 << 16     # mesh points per evaluated row block


@dataclass(frozen=True)
class QuadratureSpec:
    """Midpoint-rule controls: start at `initial` cells per axis, double until
    successive estimates agree to rtol or `max_resolution` is hit."""

    initial: int = 256
    rtol: float = 1e-6
    max_resolution: int = 4096

    def __post_init__(self):
        if not (1 <= self.initial <= self.max_resolution):
            raise ConfigError("need 1 <= initial <= max_resolution")
        if self.rtol <= 0:
            raise ConfigError("rtol must be positive")


@dataclass
class QuadratureResult:
    value: float
    converged: bool
    resolution: int
    last_change: float

    def __float__(self):
        return self.value


def midpoints(hi, k):
    """k cell midpoints of [0, hi]."""
    return (np.arange(k) + 0.5) * (hi / k)


def mesh_sum(f, box, k, mask=None):
    """Sum of f over the k x k midpoint mesh of [0, box], zero outside the region mask."""
    mx, my = midpoints(box[0], k), midpoints(box[1], k)
    rows = max(_BLOCK_POINTS // k, 1)
    whole = None if k & (k - 1) == 0 else np.empty((k, k))
    sums = []
    for i in range(0, k, rows):
        pts = lattice(mx[i:i + rows], my)
        vals = np.asarray(f(pts), dtype=float)
        if mask is not None:
            vals = np.where(mask.contains(pts), vals, 0.0)
        if whole is None:
            sums.append(vals.sum())
        else:
            whole[i:i + rows] = vals
    if whole is not None:
        return whole.sum()
    s = np.array(sums)
    while len(s) > 1:
        s = s[0::2] + s[1::2]
    return s[0]


@lru_cache(maxsize=4)
def mesh_values(f, box, k):
    """f on the k x k midpoint mesh of [0, box], read-only; memoized unless f raises.  f is keyed
    as Python compares it: a bound method by its object's identity, a closure by its own."""
    vals = np.asarray(f(lattice(midpoints(box[0], k), midpoints(box[1], k)))).view()
    vals.flags.writeable = False
    return vals


def integrate_region(f, region, spec=QuadratureSpec()):
    """Integrate a vectorized f over the region.

    For a LowerRect the mesh covers exactly [0, corner]; for other regions
    the mesh covers the unit square and membership masks the integrand.
    Refinement doubles the per-axis resolution until the estimate moves by
    less than rtol (relative, floored at 1); if the budget runs out the last
    estimate is returned with converged=False.
    """
    if not isinstance(region, Region):
        raise ConfigError("integrate_region needs a Region")
    box, mask = (region.corner, None) if isinstance(region, LowerRect) else ((1.0, 1.0), region)
    if box[0] == 0.0 or box[1] == 0.0:
        return QuadratureResult(0.0, True, spec.initial, 0.0)

    def estimate(k):
        return float(mesh_sum(f, box, k, mask) * ((box[0] / k) * (box[1] / k)))

    k = spec.initial
    prev = estimate(k)
    change = np.inf
    while k < spec.max_resolution:
        k *= 2
        cur = estimate(k)
        change = abs(cur - prev) / max(abs(cur), 1.0)
        if change < spec.rtol:
            return QuadratureResult(cur, True, k, change)
        prev = cur
    return QuadratureResult(prev, False, k, float(change))
