"""Observable regions (censoring sets), their distributions, and diagnostics.

A subject's failure point is recorded only if it falls inside the
subject's observable region xi; outside, the point is censored.  Regions come
in five shapes: lower rectangles [0, tau] (LowerRect; the full square is
[0, (1, 1)]), products of per-axis interval unions, complements of a diagonal
band, lower layers (staircases), and free-form rasters.  Each shape is a
geometry Region: its membership is `at(x, y)` at broadcastable coordinates,
with closed boundaries except where noted, and `contains(region, pts)` is the
same on (..., 2) point arrays.  Inclusion probabilities take coordinates too.

A CensoringModel is a distribution over regions of one shape.  It can
draw regions, and it reports the inclusion probabilities P(t in xi) and
P(s in xi, t in xi) of every family in closed form.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .decode import INT, NUM, PAIR, STR, Built, Schema, Tagged
from .errors import ConfigError, DataError
from .geometry import LowerRect, Region

__all__ = [
    "FullSpace", "GridProduct", "BandComplement", "LowerLayer",
    "Raster", "RegionTable", "contains", "rasterize", "observable_core",
    "QuantileTable", "CensoringModel", "CensoringDiagnostics",
    "inclusion_prob", "joint_inclusion_prob", "validate_censoring",
    "region_to_json", "region_from_json",
]


# ---------------------------------------------------------------------------
# region shapes
# ---------------------------------------------------------------------------

def FullSpace():
    """No censoring: xi = [0,1]^2, the lower rectangle with corner (1, 1)."""
    return LowerRect((1.0, 1.0))


@dataclass(frozen=True)
class GridProduct(Region):
    """xi = (union of x-intervals) x (union of y-intervals), closed intervals.

    Per axis the intervals are disjoint, sorted, and the first starts at 0.
    """

    x_intervals: tuple
    y_intervals: tuple

    def __post_init__(self):
        object.__setattr__(self, "x_intervals", _clean_intervals(self.x_intervals, "x"))
        object.__setattr__(self, "y_intervals", _clean_intervals(self.y_intervals, "y"))

    def at(self, x, y):
        return _in_union(x, self.x_intervals) & _in_union(y, self.y_intervals)


def _in_union(v, intervals):
    out = np.zeros(np.shape(v), dtype=bool)
    for a, b in intervals:
        out |= (a <= v) & (v <= b)
    return out


def _clean_intervals(raw, axis_name):
    ivs = tuple((float(a), float(b)) for a, b in raw)
    if not ivs:
        raise ConfigError(f"{axis_name}-intervals must be nonempty")
    prev_end = None
    for a, b in ivs:
        if not (0.0 <= a <= b <= 1.0):
            raise ConfigError(f"{axis_name}-interval [{a},{b}] not within [0,1] or reversed")
        if prev_end is not None and a <= prev_end:
            raise ConfigError(f"{axis_name}-intervals must be disjoint and sorted")
        prev_end = b
    if ivs[0][0] != 0.0:
        raise ConfigError(f"first {axis_name}-interval must start at 0")
    return ivs


@dataclass(frozen=True)
class BandComplement(Region):
    """Complement of the open diagonal band {k1<t1<k2, t1<t2<t1+c}; stored closed."""

    k1: float
    k2: float
    c: float

    def __post_init__(self):
        k1, k2, c = float(self.k1), float(self.k2), float(self.c)
        if not (0.0 <= k1 <= k2 <= 1.0):
            raise ConfigError(f"band needs 0 <= k1 <= k2 <= 1, got ({k1}, {k2})")
        if c <= 0.0:
            raise ConfigError("band width c must be positive")
        object.__setattr__(self, "k1", k1)
        object.__setattr__(self, "k2", k2)
        object.__setattr__(self, "c", c)

    def at(self, x, y):
        return ~((self.k1 < x) & (x < self.k2) & (x < y) & (y < x + self.c))


@dataclass(frozen=True)
class LowerLayer(Region):
    """Staircase xi = union of [0, corner_k]; corners strictly ordered.

    Corners are sorted with x strictly increasing and y strictly decreasing,
    so none is redundant.
    """

    corners: tuple

    def __post_init__(self):
        cs = sorted((float(x), float(y)) for x, y in self.corners)
        if not cs:
            raise ConfigError("lower layer needs at least one corner")
        for i, (x, y) in enumerate(cs):
            if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
                raise ConfigError(f"corner ({x},{y}) outside [0,1]^2")
            if i > 0:
                px, py = cs[i - 1]
                if x <= px or y >= py:
                    raise ConfigError("lower-layer corners must be strictly increasing in x "
                                      "and strictly decreasing in y")
        object.__setattr__(self, "corners", tuple(cs))

    def at(self, x, y):
        cs = np.asarray(self.corners)
        return ((np.asarray(x)[..., None] <= cs[:, 0]) & (np.asarray(y)[..., None] <= cs[:, 1])).any(axis=-1)


class Raster(Region):
    """Boolean m x m cell mask; cell (i, j) is [i/m,(i+1)/m) x [j/m,(j+1)/m).

    Cells are half-open, so membership on the outer boundary t=1 is False;
    this mirrors the convention that boundaries carry no probability mass.
    mask is indexed [i, j] with i along the first coordinate.
    """

    __slots__ = ("m", "mask")

    def __init__(self, m, mask):
        m = int(m)
        a = np.array(mask, dtype=bool)
        if a.shape != (m, m):
            raise ConfigError(f"raster mask must be {m}x{m}, got {a.shape}")
        a.setflags(write=False)
        self.m = m
        self.mask = a

    def __eq__(self, other):
        return (isinstance(other, Raster) and self.m == other.m
                and np.array_equal(self.mask, other.mask))

    def __hash__(self):
        return hash((self.m, self.mask.tobytes()))

    def __repr__(self):
        return f"Raster(m={self.m}, true={int(self.mask.sum())}/{self.m * self.m})"

    def at(self, x, y):
        i, j = np.broadcast_arrays(*(np.floor(v * self.m).astype(np.int64) for v in (x, y)))
        ok = (i >= 0) & (i < self.m) & (j >= 0) & (j < self.m)
        out = np.zeros(ok.shape, dtype=bool)
        out[ok] = self.mask[i[ok], j[ok]]
        return out


class RegionTable(Sequence):
    """Regions as rows, read as a sequence of region objects: row r is LowerRect(param[r, :2])
    where kind[r] is 1, BandComplement(*param[r]) where it is 2, and else objects[r].  The
    objects of column rows are built when indexed, unless the table was made from them."""

    def __init__(self, kind, param, objects):
        self.kind, self.param, self.objects = kind, param, objects

    @classmethod
    def of(cls, rows):
        """From region objects, and (kind, a, b, c) tuples of column rows."""
        rows = list(rows)
        cols = np.array([r if type(r) is tuple else (1, *r.corner, 0.0) if isinstance(r, LowerRect)
                         else (2, r.k1, r.k2, r.c) if isinstance(r, BandComplement) else (0, 0.0, 0.0, 0.0)
                         for r in rows], dtype=float).reshape(-1, 4)
        return cls(cols[:, 0].astype(np.int8), cols[:, 1:], [None if type(r) is tuple else r for r in rows])

    def __len__(self):
        return len(self.kind)

    def __getitem__(self, r):
        if self.objects[r] is not None:
            return self.objects[r]
        a, b, c = self.param[r].tolist()
        return LowerRect((a, b)) if self.kind[r] == 1 else BandComplement(a, b, c)

    def __add__(self, other):
        return RegionTable(np.concatenate([self.kind, other.kind]),
                           np.concatenate([self.param, other.param]), self.objects + other.objects)


def contains(region, pts):
    """Membership of pts (..., 2) in the region; bool scalar or array."""
    if not isinstance(region, Region):
        raise ConfigError(f"unknown region type {type(region).__name__}")
    return region.contains(pts)


def rasterize(region, m):
    """Raster approximation at resolution m: a cell is true iff its center is in the region."""
    m = int(m)
    if m < 1:
        raise ConfigError("raster resolution must be >= 1")
    if isinstance(region, Raster):
        if region.m != m:
            raise ConfigError(f"cannot re-rasterize a raster from m={region.m} to m={m}")
        return region
    c = (np.arange(m) + 0.5) / m
    return Raster(m, region.at(c[:, None], c[None, :]))


def observable_core(raster):
    """Largest subregion every point of which has its whole wide history inside the region.

    Cell (i, j) survives iff every cell (i', j') with i' <= i or j' <= j is
    true in the input: all columns up to i are full and all rows up to j are
    full.  On this core the at-risk indicator is decidable from observable
    information.  The output's true set is always a lower set of the cell
    lattice, and a subset of the input; the operator is not idempotent in
    general (a nonempty proper core has an empty core of its own, since the
    cells along the far edges leave its columns unfilled).
    """
    if not isinstance(raster, Raster):
        raise ConfigError("observable_core operates on rasters; call rasterize() first")
    col_full = raster.mask.all(axis=1)   # column i covers all j
    row_full = raster.mask.all(axis=0)   # row j covers all i
    cols_ok = np.logical_and.accumulate(col_full)
    rows_ok = np.logical_and.accumulate(row_full)
    return Raster(raster.m, np.outer(cols_ok, rows_ok))


# ---------------------------------------------------------------------------
# parameter distributions
# ---------------------------------------------------------------------------

class QuantileTable:
    """Piecewise-linear inverse CDF on [0,1]: levels ps -> values xs.

    sample(u) interpolates; flat value stretches represent atoms, so
    closed-form left CDFs and tails stay exact.
    """

    __slots__ = ("ps", "xs")

    def __init__(self, points):
        pts = sorted((float(p), float(x)) for p, x in points)
        if len(pts) < 2:
            raise ConfigError("quantile table needs at least two points")
        ps = np.array([p for p, _ in pts])
        xs = np.array([x for _, x in pts])
        if ps[0] != 0.0 or ps[-1] != 1.0:
            raise ConfigError("quantile table must span levels 0 and 1")
        if np.any(np.diff(ps) < 0) or np.any(np.diff(xs) < 0):
            raise ConfigError("quantile table must be nondecreasing")
        if np.any(np.diff(ps) == 0) and np.any(np.diff(xs)[np.diff(ps) == 0] > 0):
            raise ConfigError("quantile table has a jump (two values at one level)")
        self.ps = ps
        self.xs = xs

    @classmethod
    def fixed(cls, value):
        return cls([(0.0, value), (1.0, value)])

    @classmethod
    def uniform(cls, low, high):
        return cls([(0.0, low), (1.0, high)])

    def sample(self, u):
        return np.interp(np.asarray(u, dtype=float), self.ps, self.xs)

    def cdf_left(self, t):
        """P(X < t) = inf{p : Q(p) >= t}, exact for the piecewise-linear Q."""
        return self._cdf(t, "left")

    def cdf(self, t):
        """P(X <= t) = sup{p : Q(p) <= t}, exact for the piecewise-linear Q."""
        return self._cdf(t, "right")

    def _cdf(self, t, side):
        # xs[i-1] < t <= xs[i] on the left side and xs[i-1] <= t < xs[i] on the right, so an
        # inner segment never has x1 == x0, and an atom counts at t only on the right side
        t = np.asarray(t, dtype=float)
        i = np.asarray(np.searchsorted(self.xs, t, side=side))
        out = np.array(i >= len(self.xs), dtype=float)
        inner = (i >= 1) & (i < len(self.xs))
        ii = i[inner]
        x0, x1 = self.xs[ii - 1], self.xs[ii]
        p0, p1 = self.ps[ii - 1], self.ps[ii]
        out[inner] = p0 + (t[inner] - x0) / (x1 - x0) * (p1 - p0)
        return out if out.ndim else float(out)

    def tail_prob(self, t):
        """P(X >= t); not P(X > t) where X has an atom at t."""
        return 1.0 - self.cdf_left(t)


# ---------------------------------------------------------------------------
# censoring models
# ---------------------------------------------------------------------------

_FIXED_FAMILIES = ("full", "grid_product", "lower_layer", "raster")
_DRAWN = {"rectangle": ("tau1", "tau2"), "band_complement": ("k1", "k2")}   # per-axis quantile tables


@dataclass(frozen=True)
class CensoringModel:
    """Distribution over observable regions of one family.

    family 'rectangle' draws tau coordinates from two independent quantile
    tables; 'band_complement' draws (k1, k2) as the order statistics of two
    table draws with a fixed width c; the remaining families are fixed
    regions.  Every table's values lie in [0, 1].  Inclusion probabilities
    are closed form for every family, so mc_prob_samples and mc_seed have no
    effect; they are still checked and kept for the config format.
    """

    family: str
    params: dict = field(default_factory=dict)
    mc_prob_samples: int = 10000
    mc_seed: int = 0

    def __post_init__(self):
        fam = self.family
        p = self.params
        if self.mc_prob_samples < 1:
            raise ConfigError(f"mc_prob_samples must be at least 1, got {self.mc_prob_samples!r}")
        if fam in _DRAWN:
            if not all(isinstance(p.get(k), QuantileTable) for k in _DRAWN[fam]):
                raise ConfigError(f"{fam} model needs QuantileTable params {', '.join(_DRAWN[fam])}")
            for k in _DRAWN[fam]:
                lo, hi = p[k].xs[[0, -1]].tolist()
                if not (0.0 <= lo and hi <= 1.0):
                    raise ConfigError(f"{k} table values must lie in [0, 1], got {lo!r} to {hi!r}")
            if fam == "band_complement" and not (float(p.get("c", 0.0)) > 0.0):
                raise ConfigError("band_complement model needs width c > 0")
        elif fam in _FIXED_FAMILIES:
            if fam == "full":
                object.__setattr__(self, "params", {"region": FullSpace()})
            else:
                region = p.get("region")
                expected = {"grid_product": GridProduct, "lower_layer": LowerLayer, "raster": Raster}[fam]
                if not isinstance(region, expected):
                    raise ConfigError(f"{fam} model needs a fixed {expected.__name__} region")
        else:
            raise ConfigError(f"unknown censoring family {fam!r}")

    # -- sampling -----------------------------------------------------------

    def sample_regions(self, n, rng):
        """(RegionTable, index) of n drawn regions: a fixed family's one region and an all-zero
        index, or a drawn family's n parameter rows from one rng.random((n, 2)), which lie in
        [0, 1] as their tables do."""
        n = int(n)
        if self.family in _FIXED_FAMILIES:
            return RegionTable.of([self.params["region"]]), np.zeros(n, dtype=np.int64)
        u = rng.random((n, 2))
        a, b = (self.params[k].sample(u[:, i]) for i, k in enumerate(_DRAWN[self.family]))
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        band = self.family == "band_complement"
        regions = RegionTable(np.full(n, 1 + band, dtype=np.int8), np.column_stack(
            [lo, hi, np.full(n, float(self.params["c"]))] if band else [a, b, np.zeros(n)]), [None] * n)
        return regions, np.arange(n)


def inclusion_prob(model, x, y):
    """P((x, y) in xi) at broadcastable coordinates, in closed form."""
    if model.family == "rectangle":
        out = model.params["tau1"].tail_prob(x) * model.params["tau2"].tail_prob(y)
    elif model.family in _FIXED_FAMILIES:
        out = model.params["region"].at(x, y)
    else:
        out = 1.0 - _in_band_prob(model, (x, y))
    return _returned(out)


def joint_inclusion_prob(model, sx, sy, tx, ty):
    """P(s in xi and t in xi) for s = (sx, sy) and t = (tx, ty), all broadcastable, in closed form."""
    if model.family == "rectangle":
        out = (model.params["tau1"].tail_prob(np.maximum(sx, tx))
               * model.params["tau2"].tail_prob(np.maximum(sy, ty)))
    elif model.family in _FIXED_FAMILIES:
        region = model.params["region"]
        out = np.logical_and(region.at(sx, sy), region.at(tx, ty))
    else:
        s, t = (sx, sy), (tx, ty)
        out = 1.0 - _in_band_prob(model, s) - _in_band_prob(model, t) + _in_band_prob(model, s, t)
    return _returned(out)


def _returned(out):
    """Float arrays, or a float for a single point."""
    out = np.asarray(out, dtype=float)
    return float(out) if out.ndim == 0 else out


def _in_band_prob(model, *points):
    """P(every point (x, y) lies in the drawn band {k1 < x < k2, x < y < x + c}).

    With A and B the independent k1 and k2 table draws, k1 = min(A, B) and
    k2 = max(A, B), so for u <= v, P(k1 < u, v < k2) = P(A < u) P(B > v) +
    P(B < u) P(A > v): the two orders are disjoint events.
    """
    a, b, c = model.params["k1"], model.params["k2"], float(model.params["c"])
    strip = reduce(np.logical_and, [(x < y) & (y < x + c) for x, y in points])
    xs = [x for x, _ in points]
    u, v = reduce(np.minimum, xs), reduce(np.maximum, xs)
    return strip * (a.cdf_left(u) * (1.0 - b.cdf(v)) + b.cdf_left(u) * (1.0 - a.cdf(v)))


# ---------------------------------------------------------------------------
# assumption diagnostics
# ---------------------------------------------------------------------------

@dataclass
class CensoringDiagnostics:
    min_inclusion: float
    argmin_node: tuple
    lipschitz_ratio: float
    epsilon: float
    passed: bool
    # every family's inclusion is closed form, so no Monte Carlo SE; validation.json keeps the key
    mc_se_max = 0.0

    def to_json(self):
        return {
            "min_inclusion": self.min_inclusion,
            "argmin_node": list(self.argmin_node),
            "lipschitz_ratio": self.lipschitz_ratio,
            "epsilon": self.epsilon,
            "passed": self.passed,
            "mc_se_max": self.mc_se_max,
        }


def validate_censoring(model, grid, epsilon=0.05):
    """Check the censoring assumptions on a grid.

    Reports the minimum of P(t in xi) over the nodes (must exceed epsilon to
    pass) and the largest adjacent-node ratio
    (P(s in xi) - P(s,t in xi)) / |s - t|, an empirical Lipschitz constant
    for the pair-inclusion map.
    """
    eps = float(epsilon)
    if not (0.0 < eps < 1.0):
        raise ConfigError("epsilon must lie in (0,1)")
    x, y = grid.xs[:, None], grid.ys[None, :]
    probs = inclusion_prob(model, x, y)
    # the nodes run with the first coordinate fastest, so the first minimal node is that of probs.T
    j, i = np.unravel_index(np.argmin(probs.T), probs.T.shape)
    arg = (float(grid.xs[i]), float(grid.ys[j]))
    min_p = float(probs[i, j])

    # adjacent pairs along each axis, both orientations
    ratios = []
    for s, t, h, ps, pt in (((x[:-1], y), (x[1:], y), np.diff(x, axis=0), probs[:-1], probs[1:]),
                            ((x, y[:, :-1]), (x, y[:, 1:]), np.diff(y, axis=1), probs[:, :-1], probs[:, 1:])):
        pj = joint_inclusion_prob(model, *s, *t)
        ratios.append(np.max((ps - pj) / h))
        ratios.append(np.max((pt - pj) / h))
    lip = float(max(ratios))
    return CensoringDiagnostics(
        min_inclusion=min_p,
        argmin_node=arg,
        lipschitz_ratio=lip,
        epsilon=eps,
        passed=bool(min_p > eps),
    )


# ---------------------------------------------------------------------------
# JSON codecs
# ---------------------------------------------------------------------------

def region_to_json(region):
    if isinstance(region, LowerRect):
        full = region.corner == (1.0, 1.0)
        return {"kind": "full"} if full else {"kind": "rectangle", "tau": list(region.corner)}
    if isinstance(region, GridProduct):
        return {"kind": "grid_product",
                "x": [[a, b] for a, b in region.x_intervals],
                "y": [[a, b] for a, b in region.y_intervals]}
    if isinstance(region, BandComplement):
        return {"kind": "band_complement", "k1": region.k1, "k2": region.k2, "c": region.c}
    if isinstance(region, LowerLayer):
        return {"kind": "lower_layer", "corners": [[x, y] for x, y in region.corners]}
    if isinstance(region, Raster):
        bits = "".join("1" if v else "0" for v in region.mask.ravel(order="C"))
        return {"kind": "raster", "m": region.m, "mask": bits}
    raise ConfigError(f"unknown region type {type(region).__name__}")


def _raster_from_json(d):
    m, bits = d["m"], d["mask"]
    if m < 0 or len(bits) != m * m or set(bits) - {"0", "1"}:
        raise DataError("raster mask must be a string of m * m 0s and 1s, with m >= 0")
    return Raster(m, np.frombuffer(bits.encode(), dtype=np.uint8).reshape(m, m) == ord("1"))


REGION = Schema(Tagged("kind", {
    "full": Built({}, lambda d: FullSpace()),
    "rectangle": Built({"tau": PAIR}, lambda d: LowerRect(d["tau"])),
    "grid_product": Built({"x": [PAIR], "y": [PAIR]},
                          lambda d: GridProduct(tuple(d["x"]), tuple(d["y"]))),
    "band_complement": Built({"k1": NUM, "k2": NUM, "c": NUM},
                             lambda d: BandComplement(d["k1"], d["k2"], d["c"])),
    "lower_layer": Built({"corners": [PAIR]}, lambda d: LowerLayer(tuple(d["corners"]))),
    "raster": Built({"m": INT, "mask": STR}, _raster_from_json),
}), DataError)


def region_from_json(obj):
    return REGION.decode(obj, "region")


_QUANTILE_TABLE = Tagged("kind", {
    "fixed": Built({"value": NUM}, lambda d: QuantileTable.fixed(d["value"])),
    "uniform": Built({"low": NUM, "high": NUM}, lambda d: QuantileTable.uniform(d["low"], d["high"])),
    "table": Built({"points": [PAIR]}, lambda d: QuantileTable(d["points"])),
})


def _censoring_model(d):
    params = {k: v for k, v in d.items() if k not in ("family", "mc_prob_samples", "mc_seed")}
    return CensoringModel(family=d["family"], params=params,
                          mc_prob_samples=d["mc_prob_samples"], mc_seed=d["mc_seed"])


_MC_PROB = {"mc_prob_samples": (INT, 10000), "mc_seed": (INT, 0)}
CENSORING_MODEL = Schema(Built(Tagged("family", {
    "full": _MC_PROB,
    "rectangle": {**_MC_PROB, "tau1": _QUANTILE_TABLE, "tau2": _QUANTILE_TABLE},
    "band_complement": {**_MC_PROB, "k1": _QUANTILE_TABLE, "k2": _QUANTILE_TABLE,
                        "c": Built(NUM, float)},
    **{fam: {**_MC_PROB, "region": REGION} for fam in ("grid_product", "lower_layer", "raster")},
}), _censoring_model))
