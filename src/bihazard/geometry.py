"""Componentwise partial order on the unit square, regions, and grids.

Points live in [0,1]^2 and are ordered componentwise: s <= t iff s1 <= t1
and s2 <= t2.  Everything here is vectorized: point arguments may be a
single pair or an (..., 2) array, and predicates broadcast accordingly.
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


def leq(s, t):
    """Componentwise s <= t.  Broadcasts; returns bool (scalar or array)."""
    s = as_points(s)
    t = as_points(t)
    out = (s[..., 0] <= t[..., 0]) & (s[..., 1] <= t[..., 1])
    return bool(out) if out.ndim == 0 else out


def incomparable(s, t):
    """True where neither s <= t nor t <= s."""
    s = as_points(s)
    t = as_points(t)
    le = (s[..., 0] <= t[..., 0]) & (s[..., 1] <= t[..., 1])
    ge = (s[..., 0] >= t[..., 0]) & (s[..., 1] >= t[..., 1])
    out = ~(le | ge)
    return bool(out) if out.ndim == 0 else out


def join(s, t):
    """Componentwise maximum (least upper bound)."""
    return np.maximum(as_points(s), as_points(t))


class Region:
    """A Borel subset of [0,1]^2, queried through contains()."""

    def contains(self, pts):
        raise NotImplementedError


@dataclass(frozen=True)
class LowerRect(Region):
    """The closed rectangle [0, corner] anchored at the origin."""

    corner: tuple

    def __post_init__(self):
        c = tuple(float(x) for x in np.asarray(self.corner, dtype=float).reshape(2))
        object.__setattr__(self, "corner", c)

    def contains(self, pts):
        p = as_points(pts)
        out = (p[..., 0] <= self.corner[0]) & (p[..., 1] <= self.corner[1])
        return bool(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class PredicateRegion(Region):
    """Region given by a vectorized membership predicate on (..., 2) arrays."""

    predicate: object

    def contains(self, pts):
        p = as_points(pts)
        out = np.asarray(self.predicate(p), dtype=bool)
        if out.shape != p.shape[:-1]:
            raise ConfigError("region predicate must return one boolean per point")
        return bool(out) if out.ndim == 0 else out


def wide_history(t):
    """Everything not strictly beyond t: {s : s1 <= t1 or s2 <= t2}.

    This is the closed complement of the open upper quadrant of t; it is
    the region on which at-risk membership at t is decidable from data
    observable up to t.
    """
    t = as_points(t).reshape(2)
    t1, t2 = float(t[0]), float(t[1])

    def pred(p):
        return (p[..., 0] <= t1) | (p[..., 1] <= t2)

    return PredicateRegion(pred)


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

    def refine(self):
        """Next finer grid whose node set contains this one (2m-1 nodes)."""
        return Grid(2 * self.m - 1, self.tau)
