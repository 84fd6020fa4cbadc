"""Set-indexed Nelson-Aalen estimation for region-censored planar data.

Subject i has a failure point Y_i in [0,1]^2 and an observable region
xi_i; the point is recorded only if Y_i in xi_i.  Three record forms exist:

  observed          the point itself (necessarily in its region),
  censored_latent   the latent point is carried along (simulation truth),
  censored_opaque   componentwise minima Y ^ tau with per-coordinate event
                    flags, available only under rectangle censoring.

A CensoredSample holds them as columns plus a region table (rectangle
and band parameters as columns, other regions as objects) and checks them
in one vectorized pass.  SubjectRecord is the per-subject form; a sample's
`records` is a column view that builds them only when indexed or iterated.

The at-risk count at t is Z_n(t) = sum_i 1{Y_i >= t} 1{t in xi_i}; the
counting measure of a region A is N_A = #{i : Y_i in A and observed};
and the Nelson-Aalen estimator is

    Hhat_A = sum over observed points Y_i in A of 1 / Z_n(Y_i).

For rectangle (and trivially full-space) censoring, 1{Y_i >= t, t in xi_i}
equals 1{Y_i ^ tau_i >= t}, so at-risk counts reduce to planar dominance
counting on the minima; that is the fast path.  Every other family writes
the indicator as a short signed sum of such terms, each under a mask that
depends on t alone (a band's strip, a fixed region's membership), so any
count is one weighted dominance count per mask.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from operator import eq

import numpy as np

from . import censoring as cen
from .dominance import dominance_counter, dominating_count, dominating_count_naive, running_sums
from .errors import ConfigError, DataError, DomainError, ObservabilityError, QuantileRangeError, ReductionError
from .geometry import Grid, LowerRect, as_points, lattice
from .quadrature import QuadratureSpec, QuadratureResult, integrate_region, mesh_values, midpoints

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
        _check_fields(vars(self))


def _check_fields(f):
    """A SubjectRecord's field dict, checked in place: float pairs in the unit square, 0/1 flags."""
    if f["status"] not in _STATUSES:
        raise DataError(f"unknown record status {f['status']!r}")
    for name in _FIELDS:
        v = f[name]
        if v is not None:
            t = (v if type(v) is tuple and len(v) == 2 and type(v[0]) is type(v[1]) is float
                 else tuple(float(x) for x in np.asarray(v, dtype=float).reshape(2)))
            if not (0.0 <= t[0] <= 1.0 and 0.0 <= t[1] <= 1.0):
                raise DataError(f"{name} {t} outside the unit square")
            f[name] = t
    if f["events"] is not None:
        ev = tuple(int(x) for x in f["events"])
        if len(ev) != 2 or set(ev) - {0, 1}:
            raise DataError(f"event flags must be a pair of 0/1, got {f['events']!r}")
        f["events"] = ev
    return f


def _columns(records):
    """(carrier, status, events, regions, region_index) of SubjectRecords, with one region row
    per distinct region object in first-seen order (objects, not equal values: equal regions
    may be written differently, as Rectangle((-0.0, 1.0)) and Rectangle((0.0, 1.0)) are).
    A RecordView gives its own columns."""
    if isinstance(records, RecordView):
        return records.columns
    rows, carrier, status, events, index = {}, [], [], [], []
    for i, rec in enumerate(records):
        k = _STATUSES.index(rec.status)
        value = getattr(rec, _FIELDS[k])
        if value is None or (k == 2 and rec.events is None):
            needs = ("a point", "the latent point", "minima and event flags")[k]
            raise DataError(f"record {i}: {rec.status} record needs {needs}")
        carrier.append(value)
        status.append(k)
        events.append(rec.events if k == 2 else (0, 0))
        index.append(rows.setdefault(id(rec.censor), (len(rows), rec.censor))[0])
    return (np.array(carrier, dtype=float).reshape(-1, 2), np.array(status, dtype=np.int8),
            np.array(events, dtype=bool).reshape(-1, 2),
            cen.RegionTable.of(region for _, region in rows.values()), np.array(index, dtype=np.int64))


def _record(carrier, status, events, region):
    k = int(status)
    return SubjectRecord(region, _STATUSES[k], **{_FIELDS[k]: tuple(carrier)},
                         events=events if k == 2 else None)


class RecordView(Sequence):
    """Read-only records over the columns (carrier, status, events, regions, region_index):
    record i is status[i] with carrier[i], opaque flags events[i] and region
    regions[region_index[i]].  SubjectRecords are built when indexed or iterated; slices are
    lists.  == compares the columns of another view, and any other sequence record
    by record."""

    __hash__ = None

    def __init__(self, *columns):
        self.columns = columns

    def __len__(self):
        return len(self.columns[1])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        carrier, status, events, regions, index = self.columns
        return _record(carrier[i].tolist(), status[i], events[i].tolist(), regions[index[i]])

    def __iter__(self):
        carrier, status, events, regions, index = self.columns
        return map(_record, carrier.tolist(), status.tolist(), events.tolist(),
                   map(regions.__getitem__, index.tolist()))

    def __eq__(self, other):
        if not isinstance(other, RecordView):
            return NotImplemented if not isinstance(other, Sequence) else (
                len(self) == len(other) and all(map(eq, self, other)))
        (*mine, a, ra), (*theirs, b, rb) = self.columns, other.columns
        held = set(zip(ra[a.kind[ra] == 0].tolist(), rb[b.kind[rb] == 0].tolist()))
        return (len(ra) == len(rb) and all(map(np.array_equal, mine + [a.kind[ra], a.param[ra]],
                                               theirs + [b.kind[rb], b.param[rb]]))
                and all(a[r] == b[q] for r, q in held))


_TermTable = namedtuple("_TermTable", "start cap sign group masks")


def _term_table(regions):
    """Signed terms of every region's at-risk indicator.

    Region r holds rows start[r]:start[r + 1] of cap, sign and group, and

        1{Y >= t, t in region r} = sum over them of sign * 1{min(Y, cap) >= t} * mask(t),

    where masks[group] is None (every t), a band width c (the strip
    t1 < t2 < t1 + c) or a fixed region (membership of t).  A box is its
    corner, and any other region is the unit corner under its own mask.  A
    band complement with k1 < k2 adds two terms on its strip: it removes
    1{Y >= t, k1 < t1 < k2}, the points capped below k2 less those capped at k1.
    """
    kind, (k1, k2, c) = regions.kind, regions.param.T
    masks = {None: 0}
    held = np.flatnonzero(kind == 0).tolist()
    head_group = np.zeros(len(kind), np.int32)
    head_group[held] = [masks.setdefault(None if isinstance(r, cen.FullSpace) else r, len(masks))
                        for r in map(regions.__getitem__, held)]
    band = (kind == 2) & (k1 < k2)
    start = np.concatenate([[0], np.cumsum(1 + 2 * band)])
    head = start[:-1]
    below, at = head[band] + 1, head[band] + 2
    cap, sign, group = np.ones((start[-1], 2)), np.ones(start[-1], np.int8), np.empty(start[-1], np.int32)
    cap[head] = np.where((kind == 1)[:, None], regions.param[:, :2], 1.0)
    group[head] = head_group
    cap[below, 0], sign[below], cap[at, 0] = np.nextafter(k2[band], -np.inf), -1, k1[band]
    group[below] = group[at] = [masks.setdefault(w, len(masks)) for w in c[band].tolist()]
    return _TermTable(start, cap, sign, group, list(masks))


def _term_groups(carrier, region_index, table):
    """Per mask group: (mask, record, min(carrier[record], cap), sign) of every term of the records."""
    k = table.start[region_index + 1] - table.start[region_index]
    rec = np.repeat(np.arange(len(region_index)), k)
    term = np.repeat(table.start[region_index] - np.cumsum(k) + k, k) + np.arange(len(rec))
    group = table.group[term]
    for g, mask in enumerate(table.masks):
        part = np.flatnonzero(group == g)
        if len(part):
            r, t = rec[part], term[part]
            yield mask, r, np.minimum(carrier[r], table.cap[t]), table.sign[t]


def _mask(mask, t):
    """A term group's mask at the points t (..., 2); None holds everywhere."""
    if isinstance(mask, float):
        return (t[..., 0] < t[..., 1]) & (t[..., 1] < t[..., 0] + mask)
    return True if mask is None else cen.contains(mask, t)


def _inside(points, region_index, table):
    """1{point_i in region i}: record i's terms summed at its own point."""
    groups = _term_groups(points, region_index, table)
    return sum(np.bincount(rec, sign * ((pts == points[rec]).all(axis=1) & _mask(mask, points[rec])),
                           len(points)) for mask, rec, pts, sign in groups) > 0


class CensoredSample:
    """Immutable columnar dataset: record i is `carrier[i]` (the coordinates its `status[i]`,
    an index into _STATUSES, carries), opaque flags `events[i]` and `regions[region_index[i]]`."""

    def __init__(self, records):
        columns = _columns(records)
        if len(columns[1]) == 0:
            raise DataError("empty dataset")
        self._init(*columns)

    def _init(self, carrier, status, events, regions, region_index, terms=None, inside=None):
        """The one construction path: columns plus region table, checked together; `terms` is
        the region table's `_term_table` and `inside` each record's membership in its region
        (`_inside`), when the caller has already computed them."""
        self.n = len(status)
        self.carrier = carrier
        self.status = status
        self.events = events
        self.event_mask = (status == 0) | ((status == 2) & events.all(axis=1))
        self.event_points = carrier[self.event_mask]
        self.regions = regions
        self.region_index = region_index
        self.terms = _term_table(regions) if terms is None else terms
        self.fast = not (regions.kind == 2).any() and all(
            isinstance(regions[r], cen.FullSpace) for r in np.flatnonzero(regions.kind == 0).tolist())
        self._mass_cache = {}
        self._layouts = {}
        # every record check at once; the first offending record is named
        inside = _inside(carrier, region_index, self.terms) if inside is None else inside
        rect = (regions.kind == 1)[region_index]
        t = self.terms.cap[self.terms.start[region_index]]
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
    def records(self):
        """The sample as a RecordView over its columns."""
        return RecordView(self.carrier, self.status, self.events, self.regions, self.region_index)

    def take(self, idx):
        """Sub- or resample by index through `_init`; the region and term tables are shared,
        not copied."""
        idx = np.asarray(idx, dtype=np.int64)
        if len(idx) == 0:
            raise DataError("empty dataset")
        return object.__new__(CensoredSample)._init(self.carrier[idx], self.status[idx], self.events[idx],
                                                    self.regions, self.region_index[idx], self.terms)

    def concat(self, other):
        """Pooled sample; a region both hold appears twice in its table, which changes no count."""
        return object.__new__(CensoredSample)._init(
            np.concatenate([self.carrier, other.carrier]), np.concatenate([self.status, other.status]),
            np.concatenate([self.events, other.events]), self.regions + other.regions,
            np.concatenate([self.region_index, other.region_index + len(self.regions)]))


# ---------------------------------------------------------------------------
# at-risk, counting, Nelson-Aalen
# ---------------------------------------------------------------------------

def _risk_counts(sample, queries, w, keep=None, naive=False):
    """Z_n at each query, one row per row of the count matrix w (rows x n).

    Row r counts record i w[r, i] times, exactly for integer weights.
    Each term group makes one weighted dominance count (the quadratic
    reference scan if naive) of its records' capped points at the queries
    inside its mask, with the terms' signs folded into the weights.
    Weighted counts under a `keep` key keep each group's dominance layout in
    sample._layouts, so that the chunks of one bootstrap share it.
    """
    q = np.asarray(queries, dtype=float).reshape(-1, 2)
    count = dominating_count_naive if naive else dominating_count
    plan = sample._layouts.get(keep)
    if plan is None:
        plan = []
        for mask, rec, pts, sign in _term_groups(sample.carrier, sample.region_index, sample.terms):
            hit = slice(None) if mask is None else np.flatnonzero(_mask(mask, q))
            fn = dominance_counter(pts, q[hit]) if keep is not None else partial(count, pts, q[hit])
            if np.array_equal(rec, np.arange(sample.n)) and (sign == 1).all():
                rec = None                  # term i is record i with sign +1: the weights as they are
            plan.append((hit, rec, sign, fn))
        if keep is not None:
            sample._layouts[keep] = plan
    out = np.zeros((len(w), len(q)), dtype=w.dtype)
    for hit, rec, sign, fn in plan:
        out[:, hit] += fn(w if rec is None else w[:, rec] * sign)
    return out


def at_risk(sample, t):
    """Z_n(t): subjects whose point dominates t and whose region contains t."""
    pts = as_points(t)
    out = _risk_counts(sample, pts, np.ones((1, sample.n), dtype=np.int64))[0].reshape(pts.shape[:-1])
    return int(out) if out.ndim == 0 else out


def counting(sample, region):
    """N_A: number of observed failure points inside the region."""
    ev = sample.event_points
    if len(ev) == 0:
        return 0
    return int(np.count_nonzero(region.contains(ev)))


def jump_masses(sample, method="auto", weights=None):
    """1 / Z_n(Y_i) for each observed point, in record order.

    method 'fast' insists on rectangle/full censoring, 'naive' counts with
    the quadratic reference scan; counts are exact integers either way, so
    every method gives identical masses.  With a (rows x n) count matrix
    `weights` (a bootstrap resample per row), row r holds w_i / Z_w(Y_i):
    the total mass of record i's w_i copies.
    """
    if weights is None and method in sample._mass_cache:
        return sample._mass_cache[method]
    if method == "fast" and not sample.fast:
        raise ConfigError("fast path needs rectangle or full-space censoring throughout")
    if method not in ("auto", "fast", "naive"):
        raise ConfigError(f"unknown method {method!r}")
    w = np.ones((1, sample.n), dtype=np.int64) if weights is None else np.asarray(weights)
    w_ev = w[:, sample.event_mask]
    naive = method == "naive"
    keep = None if naive or weights is None else "events"
    z = _risk_counts(sample, sample.event_points, w, keep, naive)
    if np.any(z < w_ev):
        raise DataError("internal inconsistency: an observed point is not at risk at itself")
    masses = w_ev / np.maximum(z, 1)      # integer z >= w_ev >= 1 where drawn; else mass 0
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
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    ix = np.searchsorted(np.asarray(xs, dtype=float), pts[:, 0], side="left")
    iy = np.searchsorted(np.asarray(ys, dtype=float), pts[:, 1], side="left")
    return cell_surface(ix, iy, masses, len(xs), len(ys))


def cell_surface(ix, iy, masses, nx, ny):
    """surface_values from each point's cell (ix, iy) in an nx x ny lattice, shared by every
    row of masses or given per row; one bincount over (row, cell) ids bins all rows."""
    masses = np.asarray(masses, dtype=float)
    lead = masses.shape[:-1]
    m = masses.reshape(int(np.prod(lead)), masses.shape[-1])
    ix, iy = np.broadcast_to(ix, m.shape), np.broadcast_to(iy, m.shape)
    keep = (ix < nx) & (iy < ny)
    cell = (np.arange(len(m))[:, None] * nx + ix) * ny + iy
    # an empty bincount is integer whatever its weights
    sums = np.bincount(cell[keep], weights=m[keep], minlength=len(m) * nx * ny).astype(float, copy=False)
    sums = sums.reshape(lead + (nx, ny))
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
    """Z_n at every node (mx[i], my[j]) of a midpoint mesh (exact integers).

    Per term group, the capped points are binned so that
    count[c] = sum of signs over {p : p >= mid_c} falls out of a two-axis
    suffix sum, which the group's mask then cuts to the midpoints inside it.
    """
    z = np.zeros((len(mx), len(my)), dtype=np.int64)
    for mask, rec, pts, sign in _term_groups(sample.carrier, sample.region_index, sample.terms):
        bx = np.searchsorted(mx, pts[:, 0], side="right")
        by = np.searchsorted(my, pts[:, 1], side="right")
        cell = np.bincount(bx * (len(my) + 1) + by, weights=sign, minlength=(len(mx) + 1) * (len(my) + 1))
        cell = cell.astype(np.int64).reshape(len(mx) + 1, len(my) + 1)
        suff = cell[1:, 1:][::-1, ::-1].cumsum(axis=0).cumsum(axis=1)[::-1, ::-1]
        z += suff if mask is None else suff * _mask(mask, lattice(mx, my))
    return z


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

    The integrand is piecewise constant in Z_n, so the integral uses one fixed midpoint mesh
    (spec.initial per axis), recorded as the resolution.  Only Z_n depends on the sample: h, the
    weight and the mask on that mesh come from `mesh_values`, evaluated once per run.  (Z_n*h)*w
    keeps its order (Z_n*(h*w) rounds differently) and sums as `mesh_sum` of that integrand.
    """
    box, mask = (region.corner, None) if isinstance(region, LowerRect) else ((1.0, 1.0), region)
    k = spec.initial
    if weight is None:
        cnt = counting(sample, region)
    else:
        ev = sample.event_points
        sel = np.asarray(region.contains(ev), dtype=bool) if len(ev) else np.empty(0, dtype=bool)
        cnt = float(np.sum(np.asarray(weight(ev[sel]), dtype=float))) if np.any(sel) else 0.0
    if box[0] == 0.0 or box[1] == 0.0:
        return CompensatorResidual(float(cnt), cnt, 0.0, k)
    mx, my = midpoints(box[0], k), midpoints(box[1], k)
    vals = _risk_counts_on_mesh(sample, mx, my) * mesh_values(model.hazard, box, k)
    vals = vals if weight is None else vals * mesh_values(weight, box, k)
    vals = vals if mask is None else np.where(mesh_values(mask.contains, box, k), vals, 0.0)
    integral = float(vals.sum() * (box[0] / k) * (box[1] / k))
    return CompensatorResidual(float(cnt - integral), cnt, integral, k)


# ---------------------------------------------------------------------------
# marginal estimation
# ---------------------------------------------------------------------------

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


def _axis_intervals(regions, axis):
    """Every region row's observable intervals on one axis: per row their count (-1: no
    reduction, which raises only where a record uses it), and all (a, b) stacked row by row.
    A rectangle gives [0, tau]; a band complement [0, 1] on the first axis, and on the second,
    censored on the open interval (k1, k2 + c), [0, k1] and [k2 + c, 1] if k2 + c <= 1; a grid
    product its intervals; full space and a lower layer [0, the largest corner]; a raster none."""
    kind, (k1, k2, c) = regions.kind, regions.param.T
    band = (kind == 2) & (axis == 1)
    held = {}
    for r in np.flatnonzero(kind == 0).tolist():
        region = regions[r]
        if isinstance(region, cen.GridProduct):
            held[r] = (region.x_intervals, region.y_intervals)[axis]
        elif isinstance(region, cen.LowerLayer):
            held[r] = [(0.0, max(corner[axis] for corner in region.corners))]
        else:
            held[r] = [(0.0, 1.0)] if isinstance(region, cen.FullSpace) else None
    ends = np.zeros((len(kind), max([2] + [len(iv) for iv in held.values() if iv]), 2))
    ends[:, 0, 1] = np.where(kind == 1, regions.param[:, axis], np.where(band, k1, 1.0))
    ends[:, 1] = np.column_stack([k2 + c, np.ones(len(kind))])      # read where count is 2
    count = np.where(band & (k2 + c <= 1.0), 2, 1)
    for r, iv in held.items():
        count[r] = len(iv) if iv else -1
        ends[r, :len(iv or ())] = iv or np.empty((0, 2))
    return count, ends[np.arange(ends.shape[1]) < count[:, None]]


def _marginal_layout(sample, axis):
    """The base sample's part of a marginal estimate on one axis.

    A coordinate is an observed marginal event iff it lies in its record's
    per-axis observable set.  Gives the observed records sorted by value,
    where each distinct value starts among them, the distinct values, and
    for the at-risk counts the pair table's records in order of a and of e
    (below) with each distinct value's cut in either order.
    """
    count, intervals = _axis_intervals(sample.regions, axis)
    first = np.cumsum(np.maximum(count, 0)) - np.maximum(count, 0)
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
    # points-major: each pair counts its record's weight, for every row at once
    wt = np.ascontiguousarray(w.T)
    cnt = np.add.reduceat(wt[events], starts, axis=0).T
    z = (running_sums(wt, a_recs)[a_cut] - running_sums(wt, e_recs)[e_cut]).T
    if np.any(z < cnt):
        raise DataError("internal inconsistency: marginal event not at risk at itself")
    jumps = cnt / np.maximum(z, 1)        # integer z >= cnt >= 1 where held; else jump 0
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
    if censor_model.family == "band_complement":
        raise ConfigError(
            "asymptotic covariance needs P(s, t in xi) to be a function of s v t, which holds "
            "for rectangle and fixed-region censoring models only, not band_complement")
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

    def cells(corner):
        """Per axis the cell edges and midpoints of the rectangle, and its cell weights."""
        edges = [np.linspace(0.0, v, k + 1) for v in corner]
        mids = [midpoints(v, k) for v in corner]
        pts = lattice(*mids)
        s = sp(pts)
        if np.min(s) <= 1e-12:
            raise DomainError("S * P(t in xi) is not bounded below on the requested rectangles")
        area = (corner[0] / k) * (corner[1] / k)
        return edges, mids, np.asarray(model.hazard(pts), dtype=float) / s * area

    c_cells, d_cells = cells((c1, c2)), cells((d1, d2))

    # diagonal piece over C n D
    inter = LowerRect((min(c1, d1), min(c2, d2)))

    def diag_integrand(pts):
        return np.asarray(model.hazard(pts), dtype=float) / sp(pts)

    t1 = integrate_region(diag_integrand, inter, spec)

    rect = censor_model is not None and censor_model.family == "rectangle"

    def join_kernel(xv, yv):
        pts = lattice(xv, yv)
        return np.asarray(model.survival(pts), dtype=float) * (pfun(pts) if rect else 1.0)

    def wedge(a, b):
        """Pairs s in rectangle a, t in b with s1 < t1, s2 > t2: join = (t1, s2)."""
        (axe, aye), (axm, aym), a_mat = a
        (bxe, bye), (bxm, bym), b_mat = b
        m1 = _frac_less_matrix(axe, bxe).T @ a_mat   # [t1, s2]
        m2 = b_mat @ _frac_less_matrix(bye, aye)     # [t1, s2]
        return float(np.sum(m1 * m2 * join_kernel(bxm, aym)))

    # wedge piece; the wedge {t1 < s1, s2 < t2} is the first wedge with C and D swapped
    cross = wedge(c_cells, d_cells) + wedge(d_cells, c_cells)
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
    regions, region_index = censor_model.sample_regions(n, rng)
    terms = _term_table(regions)
    status = np.zeros(n, dtype=np.int8)
    events = np.zeros((n, 2), dtype=bool)
    inside = None
    if form == "latent":
        inside = _inside(carrier, region_index, terms)
        status[~inside] = 1
    elif form == "observable":
        fam = censor_model.family
        if fam == "rectangle":
            tau = terms.cap[terms.start[region_index]]
            events = carrier <= tau
            carrier = np.minimum(carrier, tau)
            status[:] = 2
        elif fam != "full":
            raise ConfigError(
                f"censoring family {fam!r} has no observable record form; simulate with form='latent'")
    else:
        raise ConfigError(f"unknown form {form!r}")
    return object.__new__(CensoredSample)._init(carrier, status, events, regions, region_index, terms, inside)
