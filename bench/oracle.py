"""Reference computations for the benchmark's correctness checks.

Everything here is plain NumPy written from the definitions in the
README's "Data model"; nothing calls bihazard's estimators.  Records are
the dictionaries of the JSON-lines dataset format:

    {"censor": <region>, "status": "observed",        "point":  [y1, y2]}
    {"censor": <region>, "status": "censored_latent", "latent": [y1, y2]}
    {"censor": <region>, "status": "censored_opaque", "min": [m1, m2], "delta": [d1, d2]}

Definitions used:

  Z_n(t)  = sum_i 1{Y_i >= t} 1{t in xi_i}.  For an opaque record under
            rectangle censoring only m_i = Y_i ^ tau_i is known, and
            1{Y_i >= t} 1{t <= tau_i} = 1{m_i >= t}, so the same formula
            runs on the minima.
  events  = observed records, and opaque records with both flags 1.
  mass    = 1 / Z_n(Y_i) at each event, in record order.
  H(t)    = sum of the masses of events p <= t.
  H_j(u)  = sum over distinct event values e <= u on axis j of
            count(e) / Z_j(e), with Z_j(u) = sum_i 1{v_ij >= u} 1{u in I_ij},
            where I_ij is the axis-j projection of record i's region and a
            coordinate is an event when it lies in I_ij (opaque: its flag).
  F_j     = 1 - prod over values <= u of (1 - jump): Kaplan-Meier.
"""

from __future__ import annotations

import math

import numpy as np

CHUNK = 256          # queries per broadcast block; keeps blocks near n * CHUNK bytes

BOOTSTRAP = 1        # substream path components of the bootstrap replicates
BOOTSTRAP_SECOND = 2


class Records:
    """Column view of a list of record dictionaries."""

    def __init__(self, dicts):
        n = len(dicts)
        self.n = n
        self.point = np.empty((n, 2))
        self.opaque = np.zeros(n, dtype=bool)
        self.delta = np.zeros((n, 2), dtype=bool)
        self.event = np.zeros(n, dtype=bool)
        self.regions = []
        for i, d in enumerate(dicts):
            status = d["status"]
            if status == "observed":
                self.point[i] = d["point"]
                self.event[i] = True
            elif status == "censored_latent":
                self.point[i] = d["latent"]
            elif status == "censored_opaque":
                self.point[i] = d["min"]
                self.opaque[i] = True
                self.delta[i] = [bool(x) for x in d["delta"]]
                self.event[i] = bool(self.delta[i].all())
            else:
                raise ValueError(f"record {i}: unknown status {status!r}")
            self.regions.append(d["censor"])
        self._groups = _group_regions(self.regions)

    @classmethod
    def _columns(cls, point, opaque, delta, event, regions):
        out = object.__new__(cls)
        out.n = len(point)
        out.point, out.opaque, out.delta, out.event = point, opaque, delta, event
        out.regions = regions
        out._groups = _group_regions(regions)
        return out

    def take(self, idx):
        """Records at the given indices, repeats allowed (a resample)."""
        idx = np.asarray(idx, dtype=np.int64)
        return Records._columns(self.point[idx], self.opaque[idx], self.delta[idx],
                                self.event[idx], [self.regions[i] for i in idx])

    def concat(self, other):
        return Records._columns(*(np.concatenate([getattr(self, a), getattr(other, a)])
                                  for a in ("point", "opaque", "delta", "event")),
                                self.regions + other.regions)

    @property
    def event_points(self):
        return self.point[self.event]


# ---------------------------------------------------------------------------
# region membership, one family at a time
# ---------------------------------------------------------------------------

def _in_union(v, intervals):
    out = np.zeros(np.shape(v), dtype=bool)
    for a, b in intervals:
        out |= (a <= v) & (v <= b)
    return out


def region_contains(region, pts):
    """Membership of (..., 2) points in one region given as its JSON dictionary."""
    pts = np.asarray(pts, dtype=float)
    x, y = pts[..., 0], pts[..., 1]
    kind = region["kind"]
    if kind == "full":
        return np.ones(x.shape, dtype=bool)
    if kind == "rectangle":                       # closed box [0, tau]
        return (x <= region["tau"][0]) & (y <= region["tau"][1])
    if kind == "grid_product":                    # product of closed interval unions
        return _in_union(x, region["x"]) & _in_union(y, region["y"])
    if kind == "band_complement":                 # not in {k1<x<k2, x<y<x+c}
        k1, k2, c = region["k1"], region["k2"], region["c"]
        return ~((k1 < x) & (x < k2) & (x < y) & (y < x + c))
    if kind == "lower_layer":                     # union of closed boxes [0, corner]
        out = np.zeros(x.shape, dtype=bool)
        for cx, cy in region["corners"]:
            out |= (x <= cx) & (y <= cy)
        return out
    raise ValueError(f"no oracle membership for region kind {kind!r}")


def _group_regions(regions):
    """Rectangles and bands vary per record and are kept as parameter arrays;
    every other region is grouped with the records sharing it."""
    rect_rows, rect_tau = [], []
    band_rows, band_par = [], []
    shared = {}
    for i, r in enumerate(regions):
        if r["kind"] == "rectangle":
            rect_rows.append(i)
            rect_tau.append(r["tau"])
        elif r["kind"] == "band_complement":
            band_rows.append(i)
            band_par.append((r["k1"], r["k2"], r["c"]))
        else:
            key = repr(sorted(r.items()))
            shared.setdefault(key, (r, []))[1].append(i)
    return {
        "rect": (np.array(rect_rows, dtype=np.int64), np.array(rect_tau, dtype=float).reshape(-1, 2)),
        "band": (np.array(band_rows, dtype=np.int64), np.array(band_par, dtype=float).reshape(-1, 3)),
        "shared": [(r, np.array(rows, dtype=np.int64)) for r, rows in shared.values()],
    }


def membership(recs, q):
    """(n, k) matrix of 1{q_k in xi_i}."""
    q = np.asarray(q, dtype=float).reshape(-1, 2)
    out = np.empty((recs.n, len(q)), dtype=bool)
    rows, tau = recs._groups["rect"]
    if len(rows):
        out[rows] = (q[None, :, 0] <= tau[:, 0:1]) & (q[None, :, 1] <= tau[:, 1:2])
    rows, par = recs._groups["band"]
    if len(rows):
        x, y = q[None, :, 0], q[None, :, 1]
        k1, k2, c = par[:, 0:1], par[:, 1:2], par[:, 2:3]
        out[rows] = ~((k1 < x) & (x < k2) & (x < y) & (y < x + c))
    for region, rows in recs._groups["shared"]:
        out[rows] = region_contains(region, q)[None, :]
    return out


def at_risk(recs, queries):
    """Z_n at each query point (exact integers)."""
    q = np.asarray(queries, dtype=float).reshape(-1, 2)
    out = np.empty(len(q), dtype=np.int64)
    y = recs.point
    for s in range(0, len(q), CHUNK):
        qc = q[s:s + CHUNK]
        dom = (y[:, None, 0] >= qc[None, :, 0]) & (y[:, None, 1] >= qc[None, :, 1])
        out[s:s + CHUNK] = np.count_nonzero(dom & membership(recs, qc), axis=0)
    return out


def jump_masses(recs):
    """(event points, at-risk counts, masses 1/Z) in record order."""
    ev = recs.event_points
    z = at_risk(recs, ev)
    if np.any(z < 1):
        raise ValueError("an event is not at risk at itself")
    return ev, z, 1.0 / z


def surface(points, masses, xs, ys):
    """H at every node (xs[i], ys[j]): the sum of masses of points <= the node."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    out = np.zeros((len(xs), len(ys)))
    below_y = (points[:, 1][:, None] <= ys[None, :]).astype(float)      # (E, ny)
    for i, x in enumerate(xs):
        w = np.where(points[:, 0] <= x, masses, 0.0)
        out[i] = w @ below_y
    return out


def region_total(points, masses, inside):
    """Sum of the masses of points for which inside(points) holds."""
    return float(np.sum(masses[inside(points)]))


# ---------------------------------------------------------------------------
# marginals and Kaplan-Meier
# ---------------------------------------------------------------------------

def axis_intervals(region, axis):
    """Closed intervals of the axis projection of a region's observable set."""
    kind = region["kind"]
    if kind == "full":
        return [(0.0, 1.0)]
    if kind == "rectangle":
        return [(0.0, region["tau"][axis])]
    if kind == "grid_product":
        return [tuple(iv) for iv in region["x" if axis == 0 else "y"]]
    if kind == "band_complement":
        # the band covers second coordinates in (k1, k2 + c); the first is free
        if axis == 0:
            return [(0.0, 1.0)]
        hi = region["k2"] + region["c"]
        return [(0.0, region["k1"]), (hi, 1.0)] if hi <= 1.0 else [(0.0, region["k1"])]
    if kind == "lower_layer":
        return [(0.0, max(c[axis] for c in region["corners"]))]
    raise ValueError(f"no axis projection for region kind {kind!r}")


class Marginal:
    """Axis-j Nelson-Aalen estimate: values, counts, at-risk, jumps."""

    def __init__(self, recs, axis):
        ivs = [axis_intervals(r, axis) for r in recs.regions]
        k = max(len(iv) for iv in ivs)
        lo = np.full((recs.n, k), 2.0)            # padding slots contain nothing
        hi = np.full((recs.n, k), 1.0)
        for i, iv in enumerate(ivs):
            for s, (a, b) in enumerate(iv):
                lo[i, s], hi[i, s] = a, b
        v = recs.point[:, axis]
        inside = ((lo <= v[:, None]) & (v[:, None] <= hi)).any(axis=1)
        flags = np.where(recs.opaque, recs.delta[:, axis], inside)
        self.values, self.counts = np.unique(v[flags], return_counts=True)
        z = np.empty(len(self.values), dtype=np.int64)
        for s in range(0, len(self.values), CHUNK):
            u = self.values[s:s + CHUNK]
            member = ((lo[:, :, None] <= u) & (u <= hi[:, :, None])).any(axis=1)
            z[s:s + CHUNK] = np.count_nonzero(member & (v[:, None] >= u), axis=0)
        self.at_risk = z
        self.jumps = self.counts / z

    def cum_hazard(self, t):
        """H_j at each t: sum of jumps at values <= t."""
        t = np.asarray(t, dtype=float)
        return np.array([float(np.sum(self.jumps[self.values <= x])) for x in t.ravel()]).reshape(t.shape)

    def kaplan_meier(self):
        return 1.0 - np.cumprod(1.0 - self.jumps)

    def km_quantiles(self, levels):
        """inf{s : F(s) >= p}; 2.0 and False where F never reaches p."""
        f = self.kaplan_meier()
        out = np.full(len(levels), 2.0)
        ok = np.zeros(len(levels), dtype=bool)
        for k, p in enumerate(levels):
            hit = np.nonzero(f >= p)[0]
            if len(hit):
                out[k], ok[k] = self.values[hit[0]], True
        return out, ok


# ---------------------------------------------------------------------------
# the three test statistics
# ---------------------------------------------------------------------------

def fgm_order_region(u, v):
    """Where a larger FGM parameter raises the copula-scale hazard."""
    return 1.0 - 2.0 * u - 2.0 * v + 3.0 * u * v > 0.0


def auto_tau(samples):
    """Componentwise 0.8-quantile of the pooled events, stepped down by 0.05
    until every sample has someone at risk there."""
    pts = np.concatenate([s.event_points for s in samples])
    tau = np.quantile(pts, 0.8, axis=0)
    while any(at_risk(s, tau)[0] == 0 for s in samples):
        tau = tau - 0.05
    tau = np.minimum(np.maximum(tau, 1e-9), 1.0)
    return float(tau[0]), float(tau[1])


def independence_diff(recs, xs, ys):
    ev, _, m = jump_masses(recs)
    h = surface(ev, m, xs, ys)
    return h - np.outer(Marginal(recs, 0).cum_hazard(xs), Marginal(recs, 1).cum_hazard(ys))


def independence_statistic(recs, xs, ys):
    return math.sqrt(recs.n) * float(np.max(np.abs(independence_diff(recs, xs, ys))))


def hazard_surface(recs, xs, ys):
    ev, _, m = jump_masses(recs)
    return surface(ev, m, xs, ys)


def region_hazard(recs, inside):
    ev, _, m = jump_masses(recs)
    return region_total(ev, m, inside)


def corner_surface(recs, ps, qs):
    """H at the Kaplan-Meier quantile corners, with the attainability masks."""
    xs, x_ok = Marginal(recs, 0).km_quantiles(ps)
    ys, y_ok = Marginal(recs, 1).km_quantiles(qs)
    return hazard_surface(recs, xs, ys), x_ok, y_ok


def substream(seed, *path):
    """The generator of replicate `path` under master seed `seed`."""
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(path)))


# ---------------------------------------------------------------------------
# FGM hazard integral
# ---------------------------------------------------------------------------

def fgm_hazard_integral(theta, corner, k=4000):
    """Midpoint sum of c(u,v)/Cbar(u,v) over [0, corner] (uniform marginals), k cells per axis."""
    a, b = float(corner[0]), float(corner[1])
    u = (np.arange(k) + 0.5) * (a / k)
    v = (np.arange(k) + 0.5) * (b / k)
    total = 0.0
    for s in range(0, k, CHUNK):
        uu = u[s:s + CHUNK, None]
        c = 1.0 + theta * (1.0 - 2.0 * uu) * (1.0 - 2.0 * v)
        cbar = (1.0 - uu) * (1.0 - v) * (1.0 + theta * uu * v)
        total += float(np.sum(c / cbar))
    return total * (a / k) * (b / k)


def rel_close(a, b, rtol=1e-12, scale=0.0):
    """|a - b| <= rtol * max(|a|, |b|, scale)."""
    return abs(a - b) <= rtol * max(abs(a), abs(b), scale)
