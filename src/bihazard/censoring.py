"""Observable regions (censoring sets), their distributions, and diagnostics.

A subject's failure point is recorded only if it falls inside the
subject's observable region xi; outside, the point is censored.  Regions
come in six shapes: the full square, lower rectangles [0, tau], products
of per-axis interval unions, complements of a diagonal band, lower layers
(staircases), and free-form rasters.  All membership tests are vectorized
over (..., 2) point arrays, with closed boundaries except where noted.

A CensoringModel is a distribution over regions of one shape.  It can
draw regions, and it reports inclusion probabilities P(t in xi) and
P(s in xi, t in xi) in closed form where available and by Monte Carlo
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .decode import INT, NUM, PAIR, STR, Built, Schema, Tagged
from .errors import ConfigError, DataError
from .geometry import as_points
from .util import substream

__all__ = [
    "FullSpace", "Rectangle", "GridProduct", "BandComplement", "LowerLayer",
    "Raster", "contains", "rasterize", "observable_core",
    "QuantileTable", "CensoringModel", "CensoringDiagnostics",
    "inclusion_prob", "joint_inclusion_prob", "validate_censoring",
    "region_to_json", "region_from_json",
]


# ---------------------------------------------------------------------------
# region shapes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FullSpace:
    """No censoring: xi = [0,1]^2."""


@dataclass(frozen=True)
class Rectangle:
    """xi = [0, tau1] x [0, tau2] (closed); the bivariate right-censoring set."""

    tau: tuple

    def __post_init__(self):
        t = tuple(float(x) for x in np.asarray(self.tau, dtype=float).reshape(2))
        if not (0.0 <= t[0] <= 1.0 and 0.0 <= t[1] <= 1.0):
            raise ConfigError(f"rectangle corner must lie in [0,1]^2, got {t}")
        object.__setattr__(self, "tau", t)


@dataclass(frozen=True)
class GridProduct:
    """xi = (union of x-intervals) x (union of y-intervals), closed intervals.

    Per axis the intervals are disjoint, sorted, and the first starts at 0.
    """

    x_intervals: tuple
    y_intervals: tuple

    def __post_init__(self):
        object.__setattr__(self, "x_intervals", _clean_intervals(self.x_intervals, "x"))
        object.__setattr__(self, "y_intervals", _clean_intervals(self.y_intervals, "y"))


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
class BandComplement:
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


@dataclass(frozen=True)
class LowerLayer:
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


class Raster:
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


def contains(region, pts):
    """Membership of pts (..., 2) in the region; bool scalar or array."""
    p = as_points(pts)
    x, y = p[..., 0], p[..., 1]
    if isinstance(region, FullSpace):
        out = np.ones(p.shape[:-1], dtype=bool)
    elif isinstance(region, Rectangle):
        out = (x <= region.tau[0]) & (y <= region.tau[1])
    elif isinstance(region, GridProduct):
        out = _in_union(x, region.x_intervals) & _in_union(y, region.y_intervals)
    elif isinstance(region, BandComplement):
        in_band = (region.k1 < x) & (x < region.k2) & (x < y) & (y < x + region.c)
        out = ~in_band
    elif isinstance(region, LowerLayer):
        cs = np.asarray(region.corners)
        out = ((x[..., None] <= cs[:, 0]) & (y[..., None] <= cs[:, 1])).any(axis=-1)
    elif isinstance(region, Raster):
        i = np.floor(x * region.m).astype(np.int64)
        j = np.floor(y * region.m).astype(np.int64)
        ok = (i >= 0) & (i < region.m) & (j >= 0) & (j < region.m)
        out = np.zeros(p.shape[:-1], dtype=bool)
        out[ok] = region.mask[i[ok], j[ok]]
    else:
        raise ConfigError(f"unknown region type {type(region).__name__}")
    return bool(out) if out.ndim == 0 else out


def _in_union(v, intervals):
    out = np.zeros(np.shape(v), dtype=bool)
    for a, b in intervals:
        out |= (a <= v) & (v <= b)
    return out


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
    cx, cy = np.meshgrid(c, c, indexing="ij")
    centers = np.stack([cx, cy], axis=-1)
    return Raster(m, contains(region, centers))


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
        t = np.asarray(t, dtype=float)
        i = np.searchsorted(self.xs, t, side="left")  # first index with xs[i] >= t
        out = np.empty(t.shape, dtype=float)
        out[i >= len(self.xs)] = 1.0
        inner = (i >= 1) & (i < len(self.xs))
        if np.any(inner):
            ii = i[inner]
            x0, x1 = self.xs[ii - 1], self.xs[ii]
            p0, p1 = self.ps[ii - 1], self.ps[ii]
            with np.errstate(invalid="ignore", divide="ignore"):
                frac = np.where(x1 > x0, (t[inner] - x0) / np.where(x1 > x0, x1 - x0, 1.0), 1.0)
            out[inner] = p0 + frac * (p1 - p0)
        out[i == 0] = 0.0
        return out if out.ndim else float(out)

    def tail_prob(self, t):
        """P(X >= t)."""
        return 1.0 - self.cdf_left(t)

    def to_json(self):
        return {"kind": "table", "points": [[float(p), float(x)] for p, x in zip(self.ps, self.xs)]}


# ---------------------------------------------------------------------------
# censoring models
# ---------------------------------------------------------------------------

_FIXED_FAMILIES = ("full", "grid_product", "lower_layer", "raster")


@dataclass(frozen=True)
class CensoringModel:
    """Distribution over observable regions of one family.

    family 'rectangle' draws tau coordinates from two independent quantile
    tables; 'band_complement' draws (k1, k2) as the order statistics of two
    table draws with a fixed width c; the remaining families are fixed
    regions.  mc_prob_samples and mc_seed control the Monte Carlo fallback
    for inclusion probabilities.
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
        if fam == "rectangle":
            if not isinstance(p.get("tau1"), QuantileTable) or not isinstance(p.get("tau2"), QuantileTable):
                raise ConfigError("rectangle model needs QuantileTable params tau1, tau2")
        elif fam == "band_complement":
            if not isinstance(p.get("k1"), QuantileTable) or not isinstance(p.get("k2"), QuantileTable):
                raise ConfigError("band_complement model needs QuantileTable params k1, k2")
            if not (float(p.get("c", 0.0)) > 0.0):
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

    def sample_region(self, rng):
        if self.family == "rectangle":
            u = rng.random(2)
            return Rectangle((self.params["tau1"].sample(u[0]), self.params["tau2"].sample(u[1])))
        if self.family == "band_complement":
            u = rng.random(2)
            a = float(self.params["k1"].sample(u[0]))
            b = float(self.params["k2"].sample(u[1]))
            k1, k2 = (a, b) if a <= b else (b, a)
            return BandComplement(k1, k2, self.params["c"])
        return self.params["region"]

    def sample_regions(self, n, rng):
        return [self.sample_region(rng) for _ in range(int(n))]

    @property
    def deterministic(self):
        if self.family in _FIXED_FAMILIES:
            return True
        if self.family == "rectangle":
            return all(len(self.params[k].xs) == 2 and self.params[k].xs[0] == self.params[k].xs[1]
                       for k in ("tau1", "tau2"))
        return False

    def fixed_region(self):
        if self.family in _FIXED_FAMILIES:
            return self.params["region"]
        if self.family == "rectangle" and self.deterministic:
            return Rectangle((self.params["tau1"].xs[0], self.params["tau2"].xs[0]))
        raise ConfigError("model is not a fixed region")

    @property
    def has_closed_form(self):
        return self.family in ("rectangle",) + _FIXED_FAMILIES


def inclusion_prob(model, pts, with_se=False):
    """P(t in xi) for each point; closed form where available, else Monte Carlo.

    With with_se=True returns (prob, se); the SE is 0 for closed forms.
    """
    p = as_points(pts)
    if model.family == "rectangle":
        out = (model.params["tau1"].tail_prob(p[..., 0])
               * model.params["tau2"].tail_prob(p[..., 1]))
    elif model.family in _FIXED_FAMILIES:
        out = contains(model.params["region"], p)
    else:
        return _returned(*_mc_inclusion(model, 0, p), with_se)
    return _returned(out, 0.0, with_se)


def joint_inclusion_prob(model, s, t, with_se=False):
    """P(s in xi and t in xi); closed form for rectangle/fixed families."""
    s = as_points(s)
    t = as_points(t)
    if model.family == "rectangle":
        out = (model.params["tau1"].tail_prob(np.maximum(s[..., 0], t[..., 0]))
               * model.params["tau2"].tail_prob(np.maximum(s[..., 1], t[..., 1])))
    elif model.family in _FIXED_FAMILIES:
        region = model.params["region"]
        out = np.logical_and(contains(region, s), contains(region, t))
    else:
        return _returned(*_mc_inclusion(model, 1, s, t), with_se)
    return _returned(out, 0.0, with_se)


def _returned(out, se, with_se):
    """Float arrays, or floats for a single point; (prob, se) when the SE is asked for."""
    out = np.asarray(out, dtype=float)
    se = np.zeros_like(out) + se
    if out.ndim == 0:
        out, se = float(out), float(se)
    return (out, se) if with_se else out


def _mc_inclusion(model, key, *point_sets):
    """Share of drawn regions holding every point set, and its SE; draws from substream key."""
    rng = substream(model.mc_seed, key)
    sets = np.broadcast_arrays(*point_sets)
    hits = np.zeros(sets[0].shape[:-1])
    n = model.mc_prob_samples
    for _ in range(n):
        xi = model.sample_region(rng)
        hits += np.logical_and.reduce([contains(xi, p) for p in sets])
    prob = hits / n
    return prob, np.sqrt(prob * (1.0 - prob) / n)


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
    mc_se_max: float = 0.0

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
    nodes = grid.nodes()
    probs, ses = inclusion_prob(model, nodes, with_se=True)
    probs = np.asarray(probs, dtype=float).ravel()
    k = int(np.argmin(probs))
    arg = (float(nodes[k, 0]), float(nodes[k, 1]))
    min_p = float(probs[k])

    # adjacent pairs along each axis, both orientations
    xs, ys = grid.xs, grid.ys
    ratios = []
    max_se = float(np.max(np.asarray(ses)))
    for axis in (0, 1):
        if axis == 0:
            s = np.column_stack([np.repeat(xs[:-1], grid.m), np.tile(ys, grid.m - 1)])
            t = np.column_stack([np.repeat(xs[1:], grid.m), np.tile(ys, grid.m - 1)])
            h = np.repeat(np.diff(xs), grid.m)
        else:
            s = np.column_stack([np.tile(xs, grid.m - 1), np.repeat(ys[:-1], grid.m)])
            t = np.column_stack([np.tile(xs, grid.m - 1), np.repeat(ys[1:], grid.m)])
            h = np.repeat(np.diff(ys), grid.m)
        pj = np.asarray(joint_inclusion_prob(model, s, t))
        ps = np.asarray(inclusion_prob(model, s))
        pt = np.asarray(inclusion_prob(model, t))
        ratios.append(np.max((ps - pj) / h))
        ratios.append(np.max((pt - pj) / h))
    lip = float(max(ratios))
    return CensoringDiagnostics(
        min_inclusion=min_p,
        argmin_node=arg,
        lipschitz_ratio=lip,
        epsilon=eps,
        passed=bool(min_p > eps),
        mc_se_max=max_se,
    )


# ---------------------------------------------------------------------------
# JSON codecs
# ---------------------------------------------------------------------------

def region_to_json(region):
    if isinstance(region, FullSpace):
        return {"kind": "full"}
    if isinstance(region, Rectangle):
        return {"kind": "rectangle", "tau": [region.tau[0], region.tau[1]]}
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
    "rectangle": Built({"tau": PAIR}, lambda d: Rectangle(d["tau"])),
    "grid_product": Built({"x": [PAIR], "y": [PAIR]},
                          lambda d: GridProduct(tuple(d["x"]), tuple(d["y"]))),
    "band_complement": Built({"k1": NUM, "k2": NUM, "c": NUM},
                             lambda d: BandComplement(d["k1"], d["k2"], d["c"])),
    "lower_layer": Built({"corners": [PAIR]}, lambda d: LowerLayer(tuple(d["corners"]))),
    "raster": Built({"m": INT, "mask": STR}, _raster_from_json),
}), DataError)


def region_from_json(obj):
    return REGION.decode(obj, "region")


def censoring_model_to_json(model):
    out = {"family": model.family, "mc_prob_samples": model.mc_prob_samples,
           "mc_seed": model.mc_seed}
    if model.family == "rectangle":
        out["tau1"] = model.params["tau1"].to_json()
        out["tau2"] = model.params["tau2"].to_json()
    elif model.family == "band_complement":
        out["k1"] = model.params["k1"].to_json()
        out["k2"] = model.params["k2"].to_json()
        out["c"] = model.params["c"]
    elif model.family != "full":
        out["region"] = region_to_json(model.params["region"])
    return out


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


def censoring_model_from_json(obj):
    return CENSORING_MODEL.decode(obj, "censoring model")
