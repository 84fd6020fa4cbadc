"""Set-indexed Nelson-Aalen estimation for region-censored planar data.

Subject i has a failure point Y_i in [0,1]^2 and an observable region
xi_i; the point is recorded only if Y_i in xi_i.  Three record forms exist:

  observed          the point itself (necessarily in its region),
  censored_latent   the latent point is carried along (simulation truth),
  censored_opaque   componentwise minima Y ^ tau with per-coordinate event
                    flags, available only under rectangle censoring.

A CensoredSample holds them as columns plus a table of distinct regions
and checks them in one vectorized pass; SubjectRecord is the per-subject
form that dataset I/O reads and writes.

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
from .dominance import dominance_counter, dominating_count, dominating_count_naive
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
_FIELDS = ("point", "latent", "minima")      # the coordinates each status carries


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
        for name in _FIELDS:
            v = getattr(self, name)
            if v is not None:
                t = (v if type(v) is tuple and len(v) == 2 and type(v[0]) is type(v[1]) is float
                     else tuple(float(x) for x in np.asarray(v, dtype=float).reshape(2)))
                if not (0.0 <= t[0] <= 1.0 and 0.0 <= t[1] <= 1.0):
                    raise DataError(f"{name} {t} outside the unit square")
                object.__setattr__(self, name, t)
        if self.events is not None:
            ev = tuple(int(x) for x in self.events)
            if len(ev) != 2 or set(ev) - {0, 1}:
                raise DataError(f"event flags must be a pair of 0/1, got {self.events!r}")
            object.__setattr__(self, "events", ev)


def _region_table(censors):
    """Distinct regions in first-seen order and each record's index into them."""
    table = {}
    index = np.fromiter((table.setdefault(c, len(table)) for c in censors), dtype=np.int64)
    return list(table), index


def _region_runs(region_index, rows):
    """rows ordered by region, and where each region's run of rows starts."""
    rows = rows[np.argsort(region_index[rows], kind="stable")]
    return rows, np.flatnonzero(np.diff(region_index[rows], prepend=-1))


def _boxes(regions):
    """Per region: whether it is a box (the full square or a rectangle), and its corner."""
    boxed = np.array([isinstance(r, (cen.FullSpace, cen.Rectangle)) for r in regions])
    tau = np.array([r.tau if isinstance(r, cen.Rectangle) else (1.0, 1.0) for r in regions])
    return boxed, tau


def _inside(points, regions, region_index, boxed, tau):
    """1{point_i in region i}: a tau comparison for boxes, one contains call per other region."""
    inside = (points <= tau[region_index]).all(axis=1)
    rows, starts = _region_runs(region_index, np.flatnonzero(~boxed[region_index]))
    for group, region in zip(np.split(rows, starts[1:]), region_index[rows[starts]]):
        inside[group] = cen.contains(regions[region], points[group])
    return inside


class CensoredSample:
    """Immutable columnar dataset: record i is `carrier[i]` (the coordinates its `status[i]`,
    an index into _STATUSES, carries), opaque flags `events[i]` and `regions[region_index[i]]`."""

    def __init__(self, records):
        records = list(records)
        if not records:
            raise DataError("empty dataset")
        carrier, status, events = [], [], []
        for i, rec in enumerate(records):
            k = _STATUSES.index(rec.status)
            value = getattr(rec, _FIELDS[k])
            if value is None or (k == 2 and rec.events is None):
                needs = ("a point", "the latent point", "minima and event flags")[k]
                raise DataError(f"record {i}: {rec.status} record needs {needs}")
            carrier.append(value)
            status.append(k)
            events.append(rec.events if k == 2 else (0, 0))
        self._init(np.array(carrier, dtype=float), np.array(status, dtype=np.int8),
                   np.array(events, dtype=bool), *_region_table(rec.censor for rec in records))

    def _init(self, carrier, status, events, regions, region_index):
        """The one construction path: columns plus region table, checked together."""
        self.n = len(status)
        self.carrier = carrier
        self.status = status
        self.events = events
        self.event_mask = (status == 0) | ((status == 2) & events.all(axis=1))
        self.regions = regions
        self.region_index = region_index
        self.boxed, tau = _boxes(regions)
        self.fast = bool(self.boxed.all())
        self.risk_min = np.minimum(carrier, tau[region_index])
        self._mass_cache = {}
        self._layouts = {}
        # every record check at once; the first offending record is named
        inside = _inside(carrier, regions, region_index, self.boxed, tau)
        rect = np.array([isinstance(r, cen.Rectangle) for r in regions])[region_index]
        t = tau[region_index]
        wrong = ((status == 2) & rect)[:, None] & np.where(events, carrier > t, carrier != t)
        failed = np.array([~((0.0 <= carrier) & (carrier <= 1.0)).all(axis=1), (status == 0) & ~inside,
                           (status == 1) & inside, (status == 2) & ~rect, wrong.any(axis=1)])
        if not failed.any():
            return self
        i = int(np.argmax(failed.any(axis=0)))
        k = int(np.argmax(failed[:, i]))
        j = int(np.argmax(wrong[i]))
        p = tuple(carrier[i].tolist())
        messages = (f"{_FIELDS[status[i]]} {p} outside the unit square",
                    f"observed point {p} lies outside its observable region",
                    f"latent point {p} lies inside its observable region",
                    "censored_opaque records are decidable only under rectangle censoring, "
                    f"got {type(regions[region_index[i]]).__name__}",
                    f"coordinate {j} flagged observed but minimum exceeds tau" if events[i, j]
                    else f"coordinate {j} flagged censored so its minimum must equal tau")
        raise (ObservabilityError if k == 3 else DataError)(f"record {i}: {messages[k]}")

    @property
    def event_points(self):
        return self.carrier[self.event_mask]

    @property
    def records(self):
        """The sample as SubjectRecords, built on demand (for writing datasets)."""
        return [SubjectRecord(censor=self.regions[r], status=_STATUSES[k], **{_FIELDS[k]: tuple(c)},
                              events=tuple(e) if k == 2 else None)
                for r, k, c, e in zip(self.region_index.tolist(), self.status.tolist(),
                                      self.carrier.tolist(), self.events.tolist())]

    def take(self, idx):
        """Sub- or resample by index; the region table is shared, not copied."""
        idx = np.asarray(idx, dtype=np.int64)
        if len(idx) == 0:
            raise DataError("empty dataset")
        out = object.__new__(CensoredSample)
        out.n = len(idx)
        for name in ("carrier", "status", "events", "event_mask", "region_index", "risk_min"):
            setattr(out, name, getattr(self, name)[idx])
        out.regions = self.regions
        out.boxed = self.boxed
        out.fast = self.fast
        out._mass_cache = {}
        out._layouts = {}
        return out

    def concat(self, other):
        """Pooled sample; a region both hold appears twice in its table, which changes no count."""
        return object.__new__(CensoredSample)._init(
            np.concatenate([self.carrier, other.carrier]), np.concatenate([self.status, other.status]),
            np.concatenate([self.events, other.events]), self.regions + other.regions,
            np.concatenate([self.region_index, other.region_index + len(self.regions)]))


# ---------------------------------------------------------------------------
# at-risk, counting, Nelson-Aalen
# ---------------------------------------------------------------------------

def _region_counts(sample, q, w):
    """What the records under non-box regions add to Z at the queries q, one row per row of w.

    Row r counts record i w[r, i] times, exactly for integer weights.  Each
    distinct region adds, at the queries it contains, the dominance count of
    its own points.  With queries sorted by x, those the points can dominate
    are a prefix, cut by their largest y; a region held by one record (band
    complements are drawn per subject) needs no count then.
    """
    extra = np.zeros((len(w), len(q)), dtype=w.dtype)
    rows = np.flatnonzero(~sample.boxed[sample.region_index])
    if len(rows) == 0:
        return extra
    rows, starts = _region_runs(sample.region_index, rows)
    tops = np.maximum.reduceat(sample.carrier[rows], starts)
    order = np.argsort(q[:, 0], kind="stable")
    qs = q[order]
    ends = np.searchsorted(qs[:, 0], tops[:, 0], side="right")
    for group, region, top, end in zip(np.split(rows, starts[1:]), sample.region_index[rows[starts]],
                                       tops, ends):
        head = qs[:end]
        hit = (head[:, 1] <= top[1]) & cen.contains(sample.regions[region], head)
        if len(group) == 1:
            extra[:, :end] += w[:, group] * hit
        else:
            sel = np.flatnonzero(hit)
            extra[:, sel] += dominating_count(sample.carrier[group], head[sel], w[:, group])
    return extra[:, np.argsort(order)]


def _risk_counts(sample, queries):
    """Z_n at each query (exact integers), counted once per distinct region.

    Records under box regions share one dominance count on their minima;
    the others add their `_region_counts`.
    """
    q = np.asarray(queries, dtype=float).reshape(-1, 2)
    boxed = sample.boxed[sample.region_index]
    ones = np.ones((1, sample.n), dtype=np.int64)
    return dominating_count(sample.risk_min[boxed], q) + _region_counts(sample, q, ones)[0]


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


def jump_masses(sample, method="auto", weights=None):
    """1 / Z_n(Y_i) for each observed point, in record order.

    method 'fast' uses the Fenwick dominance counter (rectangle/full
    censoring only), 'naive' the quadratic reference scan; counts are
    exact integers either way, so both give identical masses.  With a
    (rows x n) count matrix `weights` (a bootstrap resample per row), row r
    holds w_i / Z_w(Y_i): the total mass of record i's w_i copies.
    """
    if weights is None and method in sample._mass_cache:
        return sample._mass_cache[method]
    ev = sample.event_points
    if method == "fast" and not sample.fast:
        raise ConfigError("fast path needs rectangle or full-space censoring throughout")
    if method not in ("auto", "fast", "naive"):
        raise ConfigError(f"unknown method {method!r}")
    w = np.ones((1, sample.n), dtype=np.int64) if weights is None else np.asarray(weights)
    w_ev = w[:, sample.event_mask]
    if len(ev) == 0:
        z = w_ev
    elif weights is not None:
        # the box records' dominance layout at the events serves every chunk of a bootstrap
        boxed = sample.boxed[sample.region_index]
        if "events" not in sample._layouts:
            sample._layouts["events"] = dominance_counter(sample.risk_min[boxed], ev)
        z = sample._layouts["events"](w[:, boxed]) + _region_counts(sample, ev, w)
    elif method == "naive" and sample.fast:
        z = dominating_count_naive(sample.risk_min, ev)
    else:
        z = _risk_counts(sample, ev)
    z = z.reshape(w_ev.shape)
    if np.any(z < w_ev):
        raise DataError("internal inconsistency: an observed point is not at risk at itself")
    masses = np.divide(w_ev, z, out=np.zeros(z.shape), where=w_ev > 0)
    if weights is None:
        masses = sample._mass_cache[method] = masses[0]
    return masses


def nelson_aalen(sample, region, method="auto", weights=None):
    """Hhat_A: left-to-right sum of observed-point masses over the region (one per weight row)."""
    ev = sample.event_points
    masses = jump_masses(sample, method, weights)
    sel = np.asarray(region.contains(ev), dtype=bool) if len(ev) else np.zeros(0, dtype=bool)
    total = np.cumsum(masses[..., sel], axis=-1)[..., -1] if sel.any() else np.zeros(masses.shape[:-1])
    return float(total) if weights is None else total


def surface_values(points, masses, xs, ys):
    """Cumulative mass surface on the node lattice xs x ys.

    Entry [i, j] is the total mass of points p with p <= (xs[i], ys[j]);
    node coordinate arrays must be nondecreasing but are otherwise free.
    masses of shape (..., k) give one surface per leading index: each point
    is binned into its cell once, and every cell sums its masses in point
    order.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    masses = np.asarray(masses, dtype=float)
    lead = masses.shape[:-1]
    sums = np.zeros((int(np.prod(lead)), len(xs) * len(ys)))
    if len(points):
        ix = np.searchsorted(xs, points[:, 0], side="left")
        iy = np.searchsorted(ys, points[:, 1], side="left")
        keep = (ix < len(xs)) & (iy < len(ys))
        cell = ix[keep] * len(ys) + iy[keep]
        for row, mass in zip(sums, masses.reshape(len(sums), -1)):
            row[:] = np.bincount(cell, weights=mass[keep], minlength=len(row))
    sums = sums.reshape(lead + (len(xs), len(ys)))
    np.cumsum(sums, axis=-2, out=sums)
    return np.cumsum(sums, axis=-1, out=sums)


@dataclass
class HazardSurface:
    grid: Grid
    values: np.ndarray          # [i, j] = Hhat at (xs[i], ys[j])
    jump_points: np.ndarray
    jump_masses: np.ndarray
    method: str


def nelson_aalen_surface(sample, grid, method="auto", weights=None):
    """Nelson-Aalen estimates at every grid node (one surface per weight row).

    The node stage bins each observed point into the first dominating node
    and accumulates with two cumulative sums; 'fast' and 'naive' differ
    only in how the integer at-risk counts are obtained, so their outputs
    are bit-identical.
    """
    masses = jump_masses(sample, method, weights)
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


@dataclass
class MarginalEstimate:
    """One-axis Nelson-Aalen estimate: jumps at observed coordinate values.

    A weighted estimate keeps the base sample's values and gives counts,
    at_risk, jumps and cum a leading axis of one row per weight row.
    """

    axis: int
    values: np.ndarray       # distinct observed values, sorted
    counts: np.ndarray       # tied events per value
    at_risk: np.ndarray      # Z at each value
    jumps: np.ndarray        # counts / at_risk
    cum: np.ndarray          # running sums (the step function's levels)
    n: int

    def eval(self, t):
        """Hhat_j(t), right-continuous step function; vectorized."""
        return _step_eval(self.values, self.cum, t)


def _step_eval(locations, levels, t):
    """Right-continuous step function at t: 0 before locations[0], levels[..., i] from locations[i]."""
    idx = np.searchsorted(locations, np.asarray(t, dtype=float), side="right")
    out = np.concatenate([np.zeros(levels.shape[:-1] + (1,)), levels], axis=-1)[..., idx]
    return float(out) if out.ndim == 0 else out


def _cumulative(w, cols):
    """Running sums along each row of w[:, cols], with a leading 0 column."""
    out = np.zeros((len(w), len(cols) + 1), dtype=w.dtype)
    np.take(w, cols, axis=1, out=out[:, 1:])
    np.cumsum(out[:, 1:], axis=1, out=out[:, 1:])
    return out


def _marginal_layout(sample, axis):
    """The base sample's part of a marginal estimate on one axis.

    A coordinate is an observed marginal event iff it lies in its record's
    per-axis observable set.  Gives the observed records sorted by value,
    where each distinct value starts among them, the distinct values, and
    for the at-risk counts the pair table's records in order of a and of e
    (below) with each distinct value's cut in either order.
    """
    # every region's intervals stacked, with its first row and count (-1: no reduction,
    # which raises only where a record uses it)
    ivs = [iv[axis] if iv else None for iv in map(_marginal_intervals, sample.regions)]
    count = np.array([len(iv) if iv is not None else -1 for iv in ivs])
    first = np.cumsum(np.maximum(count, 0)) - np.maximum(count, 0)
    intervals = np.array([ab for iv in ivs if iv for ab in iv], dtype=float).reshape(-1, 2)
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
    events = np.flatnonzero(np.where(sample.status == 2, sample.events[:, axis], inside))
    events = events[np.argsort(v[events])]
    starts = np.flatnonzero(np.diff(v[events], prepend=-np.inf))
    distinct = v[events][starts]
    # Z(u) = #{pairs with a <= u} - #{pairs with e < u}
    a, e, rec = a[live], e[live], rec[live]
    by_a, by_e = np.argsort(a), np.argsort(e)      # ties fall on one side of every cut
    return (events, starts, distinct, rec[by_a], np.searchsorted(a[by_a], distinct, side="right"),
            rec[by_e], np.searchsorted(e[by_e], distinct, side="left"))


def marginal_nelson_aalen(sample, axis, weights=None):
    """Per-axis Nelson-Aalen estimate under the axis reduction of the censoring.

    axis is 0 or 1.  At-risk counts combine coordinate dominance with
    per-axis membership.  With a (rows x n) count matrix `weights`, record
    i counts weights[r, i] times in row r; a value that no record of row r
    holds gets an exact 0 jump, so each row's levels equal those of the
    resample it stands for.
    """
    if axis not in (0, 1):
        raise ConfigError("axis must be 0 or 1")
    layout = sample._layouts.get(("marginal", axis)) or _marginal_layout(sample, axis)
    if weights is not None:
        sample._layouts["marginal", axis] = layout
    events, starts, distinct, a_recs, a_cut, e_recs, e_cut = layout
    w = np.ones((1, sample.n), dtype=np.int64) if weights is None else np.asarray(weights)
    lead = w.shape[:-1] if weights is not None else ()
    if len(events) == 0:
        e = np.zeros(lead + (0,))
        return MarginalEstimate(axis, np.empty(0), e.astype(int), e.astype(int), e, e, sample.n)
    cnt = np.add.reduceat(w[:, events], starts, axis=1)
    # each pair counts its record's weight
    z = _cumulative(w, a_recs)[:, a_cut]
    z -= _cumulative(w, e_recs)[:, e_cut]
    if np.any(z < cnt):
        raise DataError("internal inconsistency: marginal event not at risk at itself")
    jumps = np.divide(cnt, z, out=np.zeros(cnt.shape), where=cnt > 0)
    cum = np.cumsum(jumps, axis=1)
    if weights is None:
        cnt, z, jumps, cum = cnt[0], z[0], jumps[0], cum[0]
    return MarginalEstimate(axis, distinct, cnt, z, jumps, cum, sample.n)


@dataclass
class StepCdf:
    """Right-continuous step CDF with jumps at the given locations."""

    locations: np.ndarray
    values: np.ndarray

    def eval(self, t):
        return _step_eval(self.locations, self.values, t)

    @property
    def max_value(self):
        return float(self.values[-1]) if len(self.values) else 0.0


def kaplan_meier(marginal):
    """Product-limit CDF from a marginal hazard estimate (ties grouped; one row per weight row)."""
    surv = np.cumprod(1.0 - marginal.jumps, axis=-1)
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
    carrier = np.array(model.sample(n, rng), dtype=float)
    regions, region_index = _region_table(censor_model.sample_regions(n, rng))
    status = np.zeros(n, dtype=np.int8)
    events = np.zeros((n, 2), dtype=bool)
    if form == "latent":
        status[~_inside(carrier, regions, region_index, *_boxes(regions))] = 1
    elif form == "observable":
        fam = censor_model.family
        if fam == "rectangle":
            tau = _boxes(regions)[1][region_index]
            events = carrier <= tau
            carrier = np.minimum(carrier, tau)
            status[:] = 2
        elif fam != "full":
            raise ConfigError(
                f"censoring family {fam!r} has no observable record form; simulate with form='latent'")
    else:
        raise ConfigError(f"unknown form {form!r}")
    return object.__new__(CensoredSample)._init(carrier, status, events, regions, region_index)
