"""Tensor-product midpoint quadrature on planar regions, with dyadic refinement.

Integrands and region masks are functions of coordinates, f(x, y) with x and y broadcastable, so
a mesh reaches them as a column of x midpoints against a row of y midpoints, never as points.

`mesh_sum` equals the whole mesh's `vals.sum()` bit for bit at every k: it cuts the flat k * k
mesh where NumPy's pairwise sum splits an array (the first half is n // 2 rounded down to a
multiple of 8) into ranges of at most 2^16 points and adds their NumPy sums back up that tree.
`mesh_values` keeps f on a whole mesh; by this invariant the compensator's whole-mesh product
sums as `mesh_sum` would.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError
from .geometry import LowerRect, Region

_BLOCK_POINTS = 1 << 16     # most mesh points summed by one NumPy call


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


def _pairwise(lo, hi, leaf):
    """leaf(lo, hi) on each range of NumPy's split of [lo, hi), added in NumPy's order."""
    if hi - lo <= _BLOCK_POINTS:
        return leaf(lo, hi)
    mid = lo + (hi - lo) // 2 // 8 * 8
    return _pairwise(lo, mid, leaf) + _pairwise(mid, hi, leaf)


def mesh_sum(f, box, k, mask=None):
    """Sum of f(x, y) over the k x k midpoint mesh of [0, box], zero outside the region mask.
    f and mask.at get the x column of the rows a range covers and the y row; a range that cuts a
    row sums its part of those rows, flat.  A loop keeps one range's arrays until the next
    range's exist, so malloc reuses their pages."""
    mx, my = midpoints(box[0], k)[:, None], midpoints(box[1], k)[None, :]
    sums = {}
    for lo, hi in _pairwise(0, k * k, lambda lo, hi: [(lo, hi)]):
        x = mx[lo // k:-(-hi // k)]
        vals = np.broadcast_to(np.asarray(f(x, my), dtype=float), (len(x), k))
        if mask is not None:
            vals = np.where(mask.at(x, my), vals, 0.0)
        sums[lo] = vals.reshape(-1)[lo % k:lo % k + hi - lo].sum()
    return _pairwise(0, k * k, lambda lo, hi: sums[lo])


@lru_cache(maxsize=4)
def mesh_values(f, box, k):
    """f(x, y) on the k x k midpoint mesh of [0, box], x down the rows, as a read-only view;
    memoized unless f raises.  f is keyed as Python compares it: a bound method by its object's
    identity, a closure by its own."""
    return np.broadcast_to(f(midpoints(box[0], k)[:, None], midpoints(box[1], k)[None, :]), (k, k))


def integrate_region(f, region, spec=QuadratureSpec()):
    """Integrate f(x, y) over the region.

    For a LowerRect the mesh covers exactly [0, corner]; for other regions the mesh covers the
    unit square and membership masks the integrand.  Refinement doubles the per-axis resolution
    until the estimate moves by less than rtol (relative, floored at 1), twice in a row for a
    masked f, whose coarse estimates can repeat by chance; if the budget runs out the last
    estimate is returned with converged=False.
    """
    if not isinstance(region, Region):
        raise ConfigError("integrate_region needs a Region")
    box, mask = (region.corner, None) if isinstance(region, LowerRect) else ((1.0, 1.0), region)
    if box[0] == 0.0 or box[1] == 0.0:
        return QuadratureResult(0.0, True, spec.initial, 0.0)
    estimate = lambda k: float(mesh_sum(f, box, k, mask) * ((box[0] / k) * (box[1] / k)))
    k, change, agreed = spec.initial, np.inf, 0
    prev = estimate(k)
    while k < spec.max_resolution:
        k *= 2
        cur = estimate(k)
        change = abs(cur - prev) / max(abs(cur), 1.0)
        agreed = agreed + 1 if change < spec.rtol else 0
        if agreed == (1 if mask is None else 2):
            return QuadratureResult(cur, True, k, change)
        prev = cur
    return QuadratureResult(prev, False, k, float(change))
