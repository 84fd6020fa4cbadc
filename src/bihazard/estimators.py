"""Set-indexed Nelson-Aalen estimation for region-censored planar data.

A dataset is a list of subjects.  Subject i has a failure point Y_i in
[0,1]^2 and an observable region xi_i; the point is recorded only if
Y_i in xi_i.  Three record forms exist:

  observed          the point itself (necessarily in its region),
  censored_latent   the latent point is carried along (simulation truth),
  censored_opaque   componentwise minima Y ^ tau with per-coordinate event
                    flags, available only under rectangle censoring.

The at-risk count at t is Z_n(t) = sum_i 1{Y_i >= t} 1{t in xi_i}; the
counting measure of a region A is N_A = #{i : Y_i in A and observed};
and the Nelson-Aalen estimator is

    Hhat_A = sum over observed points Y_i in A of 1 / Z_n(Y_i).

For rectangle (and trivially full-space) censoring, 1{Y_i >= t, t in xi_i}
equals 1{Y_i ^ tau_i >= t}, so at-risk counts reduce to planar dominance
counting on the minima; that is the fast path.  Other families test
membership once per distinct region and count that region's records together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import censoring as cen
from .dominance import dominating_count, dominating_count_naive
from .errors import ConfigError, DataError, DomainError, ObservabilityError, QuantileRangeError, ReductionError
from .geometry import Grid, LowerRect, Region, as_points
from .quadrature import QuadratureSpec, QuadratureResult, integrate_region, midpoints

__all__ = [
    "SubjectRecord", "CensoredSample", "HazardSurface", "MarginalEstimate", "StepCdf",
    "at_risk", "counting", "nelson_aalen", "nelson_aalen_surface", "surface_values",
    "compensator_residual", "CompensatorResidual",
    "marginal_nelson_aalen", "kaplan_meier", "km_quantile", "copula_nelson_aalen",
    "asymptotic_cov", "simulate_sample",
]

_STATUSES = ("observed", "censored_latent", "censored_opaque")


@dataclass(frozen=True)
class SubjectRecord:
    """One subject: an observable region plus whichever coordinates its status exposes."""

    censor: object
    status: str
    point: tuple = None
    latent: tuple = None
    minima: tuple = None
    events: tuple = None

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise DataError(f"unknown record status {self.status!r}")
        for name in ("point", "latent", "minima"):
            v = getattr(self, name)
            if v is not None:
                t = tuple(float(x) for x in np.asarray(v, dtype=float).reshape(2))
                if not (0.0 <= t[0] <= 1.0 and 0.0 <= t[1] <= 1.0):
                    raise DataError(f"{name} {t} outside the unit square")
                object.__setattr__(self, name, t)
        if self.events is not None:
            ev = tuple(int(x) for x in self.events)
            if len(ev) != 2 or set(ev) - {0, 1}:
                raise DataError(f"event flags must be a pair of 0/1, got {self.events!r}")
            object.__setattr__(self, "events", ev)


def _validate_record(rec, index):
    where = f"record {index}"
    if rec.status == "observed":
        if rec.point is None:
            raise DataError(f"{where}: observed record needs a point")
        if not cen.contains(rec.censor, rec.point):
            raise DataError(f"{where}: observed point {rec.point} lies outside its observable region")
    elif rec.status == "censored_latent":
        if rec.latent is None:
            raise DataError(f"{where}: censored_latent record needs the latent point")
        if cen.contains(rec.censor, rec.latent):
            raise DataError(f"{where}: latent point {rec.latent} lies inside its observable region")
    else:  # censored_opaque
        if rec.minima is None or rec.events is None:
            raise DataError(f"{where}: censored_opaque record needs minima and event flags")
        if not isinstance(rec.censor, cen.Rectangle):
            raise ObservabilityError(
                f"{where}: censored_opaque records are decidable only under rectangle censoring, "
                f"got {type(rec.censor).__name__}")
        tau = rec.censor.tau
        for j in (0, 1):
            if rec.events[j] == 1 and rec.minima[j] > tau[j]:
                raise DataError(f"{where}: coordinate {j} flagged observed but minimum exceeds tau")
            if rec.events[j] == 0 and rec.minima[j] != tau[j]:
                raise DataError(f"{where}: coordinate {j} flagged censored so its minimum must equal tau")


class CensoredSample:
    """Immutable dataset wrapper with cached arrays for the estimators.

    `regions` lists the distinct censoring regions in first-seen order and
    `region_index[i]` is record i's entry; resamples share the table."""

    def __init__(self, records):
        records = list(records)
        if not records:
            raise DataError("empty dataset")
        n = len(records)
        carrier = np.empty((n, 2))
        status = np.empty(n, dtype=np.int8)
        events = np.zeros((n, 2), dtype=bool)
        region_index = np.empty(n, dtype=np.int64)
        table = {}
        for i, rec in enumerate(records):
            _validate_record(rec, i)
            if rec.status == "observed":
                carrier[i] = rec.point
                status[i] = 0
            elif rec.status == "censored_latent":
                carrier[i] = rec.latent
                status[i] = 1
            else:
                carrier[i] = rec.minima
                status[i] = 2
                events[i] = rec.events
            region_index[i] = table.setdefault(rec.censor, len(table))
        self.records = records
        self.n = n
        self.carrier = carrier
        self.status = status
        self.events = events
        self.event_mask = (status == 0) | ((status == 2) & events.all(axis=1))
        self.regions = list(table)
        self.region_index = region_index
        self.boxed = np.array([isinstance(r, (cen.FullSpace, cen.Rectangle)) for r in self.regions])
        self.fast = bool(self.boxed.all())
        tau = np.array([r.tau if isinstance(r, cen.Rectangle) else (1.0, 1.0) for r in self.regions])
        self.risk_min = np.minimum(carrier, tau[region_index])
        self._mass_cache = {}
        self._intervals = {}

    @property
    def event_points(self):
        return self.carrier[self.event_mask]

    def take(self, idx):
        """Sub- or resample by index; the region table is shared, not copied."""
        idx = np.asarray(idx, dtype=np.int64)
        if len(idx) == 0:
            raise DataError("empty dataset")
        out = object.__new__(CensoredSample)
        out.records = [self.records[i] for i in idx]
        out.n = len(idx)
        for name in ("carrier", "status", "events", "event_mask", "region_index", "risk_min"):
            setattr(out, name, getattr(self, name)[idx])
        out.regions = self.regions
        out.boxed = self.boxed
        out.fast = self.fast
        out._mass_cache = {}
        out._intervals = self._intervals
        return out


# ---------------------------------------------------------------------------
# at-risk, counting, Nelson-Aalen
# ---------------------------------------------------------------------------

def _risk_counts(sample, queries):
    """Z_n at each query (exact integers), counted once per distinct region.

    Records under box regions share one dominance count on their minima.
    Each other region adds, at the queries it contains, the dominance count
    of its own points.  With queries sorted by x, those the points can
    dominate are a prefix, cut by their largest y; a region held by one
    record (band complements are drawn per subject) needs no count then.
    """
    q = np.asarray(queries, dtype=float).reshape(-1, 2)
    boxed = sample.boxed[sample.region_index]
    out = dominating_count(sample.risk_min[boxed], q)
    if boxed.all():
        return out
    rows = np.flatnonzero(~boxed)
    rows = rows[np.argsort(sample.region_index[rows], kind="stable")]
    starts = np.flatnonzero(np.diff(sample.region_index[rows], prepend=-1))
    tops = np.maximum.reduceat(sample.carrier[rows], starts)
    order = np.argsort(q[:, 0], kind="stable")
    qs = q[order]
    ends = np.searchsorted(qs[:, 0], tops[:, 0], side="right")
    extra = np.zeros(len(q), dtype=np.int64)
    for group, region, top, end in zip(np.split(rows, starts[1:]), sample.region_index[rows[starts]],
                                       tops, ends):
        head = qs[:end]
        hit = (head[:, 1] <= top[1]) & cen.contains(sample.regions[region], head)
        if len(group) == 1:
            extra[:end] += hit
        else:
            sel = np.flatnonzero(hit)
            extra[sel] += dominating_count(sample.carrier[group], head[sel])
    out[order] += extra
    return out


def at_risk(sample, t):
    """Z_n(t): subjects whose point dominates t and whose region contains t."""
    pts = as_points(t)
    out = _risk_counts(sample, pts).reshape(pts.shape[:-1])
    return int(out) if out.ndim == 0 else out


def counting(sample, region):
    """N_A: number of observed failure points inside the region."""
    ev = sample.event_points
    if len(ev) == 0:
        return 0
    return int(np.count_nonzero(region.contains(ev)))


def jump_masses(sample, method="auto"):
    """1 / Z_n(Y_i) for each observed point, in record order.

    method 'fast' uses the Fenwick dominance counter (rectangle/full
    censoring only), 'naive' the quadratic reference scan; counts are
    exact integers either way, so both give identical masses.
    """
    if method in sample._mass_cache:
        return sample._mass_cache[method]
    ev = sample.event_points
    if len(ev) == 0:
        masses = np.empty(0)
    else:
        if method == "fast" and not sample.fast:
            raise ConfigError("fast path needs rectangle or full-space censoring throughout")
        if method == "naive" and sample.fast:
            z = dominating_count_naive(sample.risk_min, ev)
        elif method in ("auto", "fast", "naive"):
            z = _risk_counts(sample, ev)
        else:
            raise ConfigError(f"unknown method {method!r}")
        if np.any(z < 1):
            raise DataError("internal inconsistency: an observed point is not at risk at itself")
        masses = 1.0 / z
    sample._mass_cache[method] = masses
    return masses


def nelson_aalen(sample, region, method="auto"):
    """Hhat_A: left-to-right sum of observed-point masses over the region."""
    ev = sample.event_points
    if len(ev) == 0:
        return 0.0
    masses = jump_masses(sample, method)
    sel = np.asarray(region.contains(ev), dtype=bool)
    total = 0.0
    for w in masses[sel]:
        total += float(w)
    return total


def surface_values(points, masses, xs, ys):
    """Cumulative mass surface on the node lattice xs x ys.

    Entry [i, j] is the total mass of points p with p <= (xs[i], ys[j]);
    node coordinate arrays must be nondecreasing but are otherwise free.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    cell = np.zeros((len(xs), len(ys)))
    if len(points):
        ix = np.searchsorted(xs, points[:, 0], side="left")
        iy = np.searchsorted(ys, points[:, 1], side="left")
        keep = (ix < len(xs)) & (iy < len(ys))
        np.add.at(cell, (ix[keep], iy[keep]), masses[keep])
    return cell.cumsum(axis=0).cumsum(axis=1)


@dataclass
class HazardSurface:
    grid: Grid
    values: np.ndarray          # [i, j] = Hhat at (xs[i], ys[j])
    jump_points: np.ndarray
    jump_masses: np.ndarray
    method: str


def nelson_aalen_surface(sample, grid, method="auto"):
    """Nelson-Aalen estimates at every grid node.

    The node stage bins each observed point into the first dominating node
    and accumulates with two cumulative sums; 'fast' and 'naive' differ
    only in how the integer at-risk counts are obtained, so their outputs
    are bit-identical.
    """
    masses = jump_masses(sample, method)
    ev = sample.event_points
    vals = surface_values(ev, masses, grid.xs, grid.ys)
    return HazardSurface(grid=grid, values=vals, jump_points=ev, jump_masses=masses,
                         method=method)


# ---------------------------------------------------------------------------
# compensator residual
# ---------------------------------------------------------------------------

def _risk_counts_on_mesh(sample, mx, my):
    """Z_n at every midpoint pair (exact integers).

    Fast path: bin the minima so that count[c] = #{p : p >= mid_c} falls out
    of a two-axis suffix sum."""
    if sample.fast:
        bx = np.searchsorted(mx, sample.risk_min[:, 0], side="right")
        by = np.searchsorted(my, sample.risk_min[:, 1], side="right")
        cell = np.zeros((len(mx) + 1, len(my) + 1), dtype=np.int64)
        np.add.at(cell, (bx, by), 1)
        suff = cell[1:, 1:][::-1, ::-1].cumsum(axis=0).cumsum(axis=1)[::-1, ::-1]
        return suff
    gx, gy = np.meshgrid(mx, my, indexing="ij")
    pts = np.stack([gx, gy], axis=-1).reshape(-1, 2)
    return _risk_counts(sample, pts).reshape(len(mx), len(my))


@dataclass
class CompensatorResidual:
    value: float
    count: int
    integral: float
    resolution: int

    def __float__(self):
        return self.value


def compensator_residual(sample, model, region, spec=QuadratureSpec(), weight=None):
    """N_A minus the integral of Z_n * h (optionally * weight) over the region.

    The integrand is piecewise constant in Z_n, so the integral uses a single
    fixed midpoint mesh (spec.initial per axis) rather than refinement; the
    resolution is recorded in the result.
    """
    if isinstance(region, LowerRect):
        box = region.corner
        mask = None
    else:
        box = (1.0, 1.0)
        mask = region
    k = spec.initial
    if box[0] == 0.0 or box[1] == 0.0:
        cnt = counting(sample, region)
        return CompensatorResidual(float(cnt), cnt, 0.0, k)
    mx, my = midpoints(box[0], k), midpoints(box[1], k)
    z = _risk_counts_on_mesh(sample, mx, my)
    gx, gy = np.meshgrid(mx, my, indexing="ij")
    pts = np.stack([gx, gy], axis=-1)
    integrand = z * np.asarray(model.hazard(pts), dtype=float)
    if weight is not None:
        integrand = integrand * np.asarray(weight(pts), dtype=float)
    if mask is not None:
        integrand = np.where(mask.contains(pts), integrand, 0.0)
    integral = float(integrand.sum() * (box[0] / k) * (box[1] / k))
    if weight is None:
        cnt = counting(sample, region)
    else:
        ev = sample.event_points
        sel = np.asarray(region.contains(ev), dtype=bool) if len(ev) else np.empty(0, dtype=bool)
        cnt = float(np.sum(np.asarray(weight(ev[sel]), dtype=float))) if np.any(sel) else 0.0
    return CompensatorResidual(float(cnt - integral), cnt, integral, k)


# ---------------------------------------------------------------------------
# marginal estimation
# ---------------------------------------------------------------------------

def _marginal_intervals(region):
    """Per-axis observable interval unions ([ (a,b), ... ] per axis).

    Only families with a per-axis censoring structure reduce; rasters do not
    and give None.
    """
    if isinstance(region, cen.FullSpace):
        return [(0.0, 1.0)], [(0.0, 1.0)]
    if isinstance(region, cen.Rectangle):
        return [(0.0, region.tau[0])], [(0.0, region.tau[1])]
    if isinstance(region, cen.GridProduct):
        return list(region.x_intervals), list(region.y_intervals)
    if isinstance(region, cen.BandComplement):
        # second axis censored on the open interval (k1, k2+c)
        hi = region.k2 + region.c
        second = [(0.0, region.k1), (hi, 1.0)] if hi <= 1.0 else [(0.0, region.k1)]
        return [(0.0, 1.0)], second
    if isinstance(region, cen.LowerLayer):
        cs = np.asarray(region.corners)
        return [(0.0, float(cs[:, 0].max()))], [(0.0, float(cs[:, 1].max()))]
    return None


def _interval_table(sample, axis):
    """Every region's intervals on one axis, stacked, with each region's first row and count.

    Built once per base sample and shared by its resamples; a region with no
    reduction gets count -1, which raises only where a record uses it.
    """
    if axis not in sample._intervals:
        rows, first, count = [], [], []
        for ivs in map(_marginal_intervals, sample.regions):
            first.append(len(rows))
            count.append(len(ivs[axis]) if ivs else -1)
            rows.extend(ivs[axis] if ivs else ())
        sample._intervals[axis] = (np.array(rows, dtype=float).reshape(-1, 2),
                                   np.array(first, dtype=np.int64), np.array(count, dtype=np.int64))
    return sample._intervals[axis]


@dataclass
class MarginalEstimate:
    """One-axis Nelson-Aalen estimate: jumps at observed coordinate values."""

    axis: int
    values: np.ndarray       # distinct observed values, sorted
    counts: np.ndarray       # tied events per value
    at_risk: np.ndarray      # Z at each value
    jumps: np.ndarray        # counts / at_risk
    cum: np.ndarray          # running sums (the step function's levels)
    n: int

    def eval(self, t):
        """Hhat_j(t), right-continuous step function; vectorized."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.values, t, side="right")
        levels = np.concatenate([[0.0], self.cum])
        out = levels[idx]
        return float(out) if out.ndim == 0 else out


def marginal_nelson_aalen(sample, axis):
    """Per-axis Nelson-Aalen estimate under the axis reduction of the censoring.

    axis is 0 or 1.  A coordinate is an observed marginal event iff it lies
    in its record's per-axis observable set; at-risk counts combine coordinate
    dominance with per-axis membership.
    """
    if axis not in (0, 1):
        raise ConfigError("axis must be 0 or 1")
    intervals, first, count = _interval_table(sample, axis)
    k = count[sample.region_index]
    if np.any(k < 0):
        region = sample.regions[sample.region_index[np.argmax(k < 0)]]
        raise ReductionError(f"no per-axis censoring reduction for {type(region).__name__}")
    # one row per (record, interval) pair; record i's interval [a, b] holds u
    # while v_i >= u exactly when a <= u <= e with e = min(b, v_i)
    rec = np.repeat(np.arange(sample.n), k)
    pair = np.repeat(first[sample.region_index] - (np.cumsum(k) - k), k) + np.arange(len(rec))
    a, b = intervals[pair, 0], intervals[pair, 1]
    v = sample.carrier[:, axis]
    vr = v[rec]
    e = np.minimum(b, vr)
    live = a <= e
    inside = np.bincount(rec[live & (vr <= b)], minlength=sample.n) > 0
    obs = np.where(sample.status == 2, sample.events[:, axis], inside)
    distinct, cnt = np.unique(v[obs], return_counts=True)
    if len(distinct) == 0:
        e = np.empty(0)
        return MarginalEstimate(axis, e, e.astype(int), e.astype(int), e, e, sample.n)
    z = (np.searchsorted(np.sort(a[live]), distinct, side="right")
         - np.searchsorted(np.sort(e[live]), distinct, side="left"))
    if np.any(z < cnt):
        raise DataError("internal inconsistency: marginal event not at risk at itself")
    jumps = cnt / z
    cum = np.cumsum(jumps)
    return MarginalEstimate(axis, distinct, cnt, z, jumps, cum, sample.n)


@dataclass
class StepCdf:
    """Right-continuous step CDF with jumps at the given locations."""

    locations: np.ndarray
    values: np.ndarray

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.locations, t, side="right")
        levels = np.concatenate([[0.0], self.values])
        out = levels[idx]
        return float(out) if out.ndim == 0 else out

    @property
    def max_value(self):
        return float(self.values[-1]) if len(self.values) else 0.0


def kaplan_meier(marginal):
    """Product-limit CDF from a marginal hazard estimate (ties grouped)."""
    surv = np.cumprod(1.0 - marginal.jumps)
    return StepCdf(locations=marginal.values, values=1.0 - surv)


def km_quantile(cdf, p):
    """Generalized inverse inf{s : F(s) >= p}; errors if p is not attained."""
    p = float(p)
    if not (0.0 < p <= 1.0):
        raise QuantileRangeError(f"quantile level must lie in (0, 1], got {p}")
    if len(cdf.values) == 0 or p > cdf.max_value:
        raise QuantileRangeError(
            f"level {p} exceeds the maximum attained CDF value {cdf.max_value}")
    idx = int(np.searchsorted(cdf.values, p, side="left"))
    return float(cdf.locations[idx])


def copula_nelson_aalen(sample, p, q):
    """Estimate on the copula scale: Hhat of [0, (Fhat^-1(p), Ghat^-1(q))].

    The corner uses Kaplan-Meier quantiles of the two marginal reductions.
    """
    f = kaplan_meier(marginal_nelson_aalen(sample, 0))
    g = kaplan_meier(marginal_nelson_aalen(sample, 1))
    corner = (km_quantile(f, p), km_quantile(g, q))
    return nelson_aalen(sample, LowerRect(corner))


# ---------------------------------------------------------------------------
# asymptotic covariance (the limit process on lower rectangles)
# ---------------------------------------------------------------------------

def _frac_less_matrix(edges_a, edges_b):
    """Exact fraction of {a < b} over each pair of 1-D cells."""
    ea = np.asarray(edges_a, dtype=float)
    eb = np.asarray(edges_b, dtype=float)
    alo, ahi = ea[:-1][:, None], ea[1:][:, None]
    blo, bhi = eb[:-1][None, :], eb[1:][None, :]
    full = np.clip(np.minimum(ahi, blo) - alo, 0.0, None) * (bhi - blo)
    lo = np.maximum(alo, blo)
    hi = np.minimum(ahi, bhi)
    w = hi - lo
    tri = np.where(w > 0.0, bhi * w - 0.5 * (hi * hi - lo * lo), 0.0)
    area = full + tri
    return area / ((ahi - alo) * (bhi - blo))


def _inclusion_fn(censor_model):
    if censor_model is None:
        return lambda pts: 1.0
    if not censor_model.has_closed_form:
        raise ConfigError(
            "asymptotic covariance needs closed-form inclusion probabilities; "
            "use a rectangle or fixed-region censoring model")
    return lambda pts: np.asarray(cen.inclusion_prob(censor_model, pts), dtype=float)


@dataclass
class AsymptoticCov:
    value: float
    diagonal_term: float
    cross_term: float
    quadrature: QuadratureResult

    def __float__(self):
        return self.value


def asymptotic_cov(model, censor_model, region_c, region_d,
                   spec=QuadratureSpec(), pair_resolution=64):
    """Limit covariance of the estimator at two lower rectangles.

    Two pieces: an integral of h / (S * P(t in xi)) over the intersection,
    plus a double integral over incomparable pairs (s in C, t in D) of

        S(s v t) P(s,t in xi) h(s) h(t) / (S(s) S(t) P(s in xi) P(t in xi)).

    The pair integral runs over the two wedges {s1<t1, s2>t2} and
    {s1>t1, s2<t2} with exact per-cell-pair fractions for the wedge
    indicators, so only smoothness limits accuracy.  S * P must be bounded
    away from zero on both rectangles.
    """
    if not isinstance(region_c, LowerRect) or not isinstance(region_d, LowerRect):
        raise ConfigError("asymptotic_cov is defined for lower rectangles")
    c1, c2 = region_c.corner
    d1, d2 = region_d.corner
    if min(c1, c2) == 0.0 or min(d1, d2) == 0.0:
        zero = QuadratureResult(0.0, True, spec.initial, 0.0)
        return AsymptoticCov(0.0, 0.0, 0.0, zero)
    pfun = _inclusion_fn(censor_model)

    def sp(pts):
        return np.asarray(model.survival(pts), dtype=float) * np.asarray(pfun(pts), dtype=float)

    k = int(pair_resolution)
    for corner in ((c1, c2), (d1, d2)):
        mx, my = midpoints(corner[0], k), midpoints(corner[1], k)
        gx, gy = np.meshgrid(mx, my, indexing="ij")
        if np.min(sp(np.stack([gx, gy], axis=-1))) <= 1e-12:
            raise DomainError("S * P(t in xi) is not bounded below on the requested rectangles")

    # diagonal piece over C n D
    inter = LowerRect((min(c1, d1), min(c2, d2)))

    def diag_integrand(pts):
        return np.asarray(model.hazard(pts), dtype=float) / sp(pts)

    t1 = integrate_region(diag_integrand, inter, spec)

    # wedge piece
    cxe, cye = np.linspace(0.0, c1, k + 1), np.linspace(0.0, c2, k + 1)
    dxe, dye = np.linspace(0.0, d1, k + 1), np.linspace(0.0, d2, k + 1)
    cxm, cym = midpoints(c1, k), midpoints(c2, k)
    dxm, dym = midpoints(d1, k), midpoints(d2, k)

    def weight_mat(xm, ym, corner):
        gx, gy = np.meshgrid(xm, ym, indexing="ij")
        pts = np.stack([gx, gy], axis=-1)
        h = np.asarray(model.hazard(pts), dtype=float)
        area = (corner[0] / k) * (corner[1] / k)
        return h / sp(pts) * area

    a_mat = weight_mat(cxm, cym, (c1, c2))
    b_mat = weight_mat(dxm, dym, (d1, d2))

    if censor_model is not None and censor_model.family == "rectangle":
        def joint_at(pts):
            return np.asarray(cen.inclusion_prob(censor_model, pts), dtype=float)
    else:
        def joint_at(pts):
            return 1.0

    def join_kernel(xv, yv):
        gx, gy = np.meshgrid(xv, yv, indexing="ij")
        pts = np.stack([gx, gy], axis=-1)
        return np.asarray(model.survival(pts), dtype=float) * joint_at(pts)

    # wedge {s1 < t1, s2 > t2}: join = (t1, s2)
    flx = _frac_less_matrix(cxe, dxe)            # [s1, t1]
    fly = _frac_less_matrix(dye, cye)            # [t2, s2]
    m1 = flx.T @ a_mat                           # [t1, s2]
    m2 = b_mat @ fly                             # [t1, s2]
    wedge1 = float(np.sum(m1 * m2 * join_kernel(dxm, cym)))

    # wedge {t1 < s1, s2 < t2}: join = (s1, t2)
    flx2 = _frac_less_matrix(dxe, cxe)           # [t1, s1]
    fly2 = _frac_less_matrix(cye, dye)           # [s2, t2]
    m1b = a_mat @ fly2                           # [s1, t2]
    m2b = flx2.T @ b_mat                         # [s1, t2]
    wedge2 = float(np.sum(m1b * m2b * join_kernel(cxm, dym)))

    cross = wedge1 + wedge2
    return AsymptoticCov(t1.value + cross, t1.value, cross, t1)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def simulate_sample(model, censor_model, n, rng, form="latent"):
    """Draw n subjects from the model and censoring model.

    form 'latent' keeps latent points on censored records (simulation
    truth); 'observable' emits what a real study would see, which exists
    only for full-space (everything observed) and rectangle censoring
    (minima plus event flags for every subject).
    """
    n = int(n)
    if n < 1:
        raise ConfigError("n must be at least 1")
    pts = model.sample(n, rng)
    regions = censor_model.sample_regions(n, rng)
    records = []
    if form == "latent":
        for y, xi in zip(pts, regions):
            if cen.contains(xi, y):
                records.append(SubjectRecord(censor=xi, status="observed", point=tuple(y)))
            else:
                records.append(SubjectRecord(censor=xi, status="censored_latent", latent=tuple(y)))
    elif form == "observable":
        fam = censor_model.family
        if fam == "full":
            for y, xi in zip(pts, regions):
                records.append(SubjectRecord(censor=xi, status="observed", point=tuple(y)))
        elif fam == "rectangle":
            for y, xi in zip(pts, regions):
                tau = np.asarray(xi.tau)
                minima = np.minimum(y, tau)
                delta = tuple(int(v) for v in (y <= tau))
                records.append(SubjectRecord(censor=xi, status="censored_opaque",
                                             minima=tuple(minima), events=delta))
        else:
            raise ConfigError(
                f"censoring family {fam!r} has no observable record form; simulate with form='latent'")
    else:
        raise ConfigError(f"unknown form {form!r}")
    return CensoredSample(records)
