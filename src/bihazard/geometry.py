"""Regions of the unit square, and grids.

Every function of a point takes its coordinates: f(x, y) with x and y
broadcastable, so a k x k mesh is an x column against a y row and per-axis
work is done k times.  A region's membership is `Region.at(x, y)`;
`Region.contains(pts)` takes (..., 2) point arrays, for callers that hold
point lists (event points, query lists), and derives from `at` in one place.
`lattice` builds point arrays only where the output is a point list.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decode import INT, Schema
from .errors import ConfigError


def as_points(pts):
    """Coerce to a float64 array with trailing axis of length 2."""
    a = np.asarray(pts, dtype=float)
    if a.shape[-1:] != (2,):
        raise ConfigError(f"expected points with a trailing axis of length 2, got shape {a.shape}")
    return a


def lattice(xs, ys):
    """The (len(xs), len(ys), 2) point array with [i, j] = (xs[i], ys[j])."""
    return np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1)


class Region:
    """A Borel subset of [0,1]^2: `at(x, y)` is its membership at broadcastable coordinates."""

    def at(self, x, y):
        raise NotImplementedError

    def contains(self, pts):
        """Membership of (..., 2) points; a bool for a single point."""
        p = as_points(pts)
        out = np.asarray(self.at(p[..., 0], p[..., 1]), dtype=bool)
        return bool(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class LowerRect(Region):
    """The closed rectangle [0, corner], corner in [0,1]^2: an estimation and censoring set."""

    corner: tuple

    def __post_init__(self):
        c = tuple(float(x) for x in np.asarray(self.corner, dtype=float).reshape(2))
        if not (0.0 <= c[0] <= 1.0 and 0.0 <= c[1] <= 1.0):
            raise ConfigError(f"rectangle corner must lie in [0,1]^2, got {c}")
        object.__setattr__(self, "corner", c)

    def at(self, x, y):
        return (x <= self.corner[0]) & (y <= self.corner[1])


@dataclass(frozen=True)
class PredicateRegion(Region):
    """Region given by a vectorized membership predicate on (..., 2) point arrays, which its
    coordinate form stacks x and y into."""

    predicate: object

    def at(self, x, y):
        return self.contains(np.stack(np.broadcast_arrays(x, y), axis=-1))

    def contains(self, pts):
        p = as_points(pts)
        out = np.asarray(self.predicate(p), dtype=bool)
        if out.shape != p.shape[:-1]:
            raise ConfigError("region predicate must return one boolean per point")
        return bool(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Grid:
    """m x m evaluation lattice on [0, tau1] x [0, tau2], nodes include 0 and tau."""

    m: int
    tau: tuple = (1.0, 1.0)

    def __post_init__(self):
        Schema(INT).decode(self.m, "grid size")
        if self.m < 2:
            raise ConfigError("grid needs at least 2 nodes per axis")
        object.__setattr__(self, "m", int(self.m))
        t = tuple(float(x) for x in np.asarray(self.tau, dtype=float).reshape(2))
        if not (0.0 < t[0] <= 1.0 and 0.0 < t[1] <= 1.0):
            raise ConfigError(f"grid corner must lie in (0,1]^2, got {t}")
        object.__setattr__(self, "tau", t)

    @property
    def xs(self):
        return np.linspace(0.0, self.tau[0], self.m)

    @property
    def ys(self):
        return np.linspace(0.0, self.tau[1], self.m)

    def nodes(self):
        """All m^2 nodes, row-major with the first coordinate varying fastest."""
        return lattice(self.xs, self.ys).swapaxes(0, 1).reshape(-1, 2)
