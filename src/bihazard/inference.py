"""Bootstrap resampling and the three hypothesis tests.

All tests share one calibration rule: with B replicate statistics, the
critical value is the k-th largest replicate with k = floor(alpha*(B+1)),
the p-value is (1 + #{replicate >= statistic}) / (B+1), and the null is
rejected exactly when the statistic exceeds the critical value.  Those
three conventions are mutually consistent (reject iff p <= alpha holds
even with ties) and give a valid level for finite B.

Replicate r always draws from the substream (masterSeed, branch, r), so
reports are identical for any worker count.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, QuantileRangeError
from .estimators import (CensoredSample, at_risk, jump_masses, kaplan_meier,
                         marginal_nelson_aalen, nelson_aalen, nelson_aalen_surface,
                         surface_values)
from .geometry import Grid, PredicateRegion
from .models import fgm_order_region
from .util import BOOTSTRAP, BOOTSTRAP_SECOND, run_indexed, substream

__all__ = [
    "BootstrapSpec", "TestReport", "bootstrap_resample",
    "independence_test", "hazard_order_test", "fgm_order_test",
]


@dataclass(frozen=True)
class BootstrapSpec:
    """Replicate count, level, master seed, sup-evaluation grid, sidedness."""

    replicates: int = 999
    alpha: float = 0.05
    seed: int = 0
    grid_size: int = 64
    sided: str = "one-sided"
    workers: int = 1

    def __post_init__(self):
        for name in ("replicates", "alpha", "seed", "grid_size", "workers"):
            value = getattr(self, name)
            kind = numbers.Real if name == "alpha" else numbers.Integral
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ConfigError(f"{name} must be {'a number' if name == 'alpha' else 'an integer'}, "
                                  f"got {value!r}")
        if self.replicates < 1:
            raise ConfigError("replicates must be at least 1")
        if not (0.0 < self.alpha <= 1.0):
            raise ConfigError("alpha must lie in (0, 1]")
        if self.grid_size < 2:
            raise ConfigError("grid_size must be at least 2")
        if self.sided not in ("one-sided", "two-sided"):
            raise ConfigError("sided must be 'one-sided' or 'two-sided'")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")


@dataclass
class TestReport:
    test: str
    statistic: float
    critical_value: float
    p_value: float
    reject: bool
    alpha: float
    replicates: int
    diagnostics: dict = field(default_factory=dict)
    replicate_statistics: np.ndarray = None

    def to_json(self):
        return {
            "test": self.test,
            "statistic": self.statistic,
            "criticalValue": self.critical_value,
            "pValue": self.p_value,
            "reject": bool(self.reject),
            "alpha": self.alpha,
            "replicates": self.replicates,
            "diagnostics": self.diagnostics,
        }


def _finish(name, stat, reps, spec, diagnostics):
    reps = np.asarray(reps, dtype=float)
    b = len(reps)
    k = math.floor(spec.alpha * (b + 1))
    if k < 1:
        crit = math.inf
    elif k > b:
        crit = -math.inf       # alpha = 1: diagnostic mode, always rejects
    else:
        crit = float(np.sort(reps)[::-1][k - 1])
    p = float((1 + np.count_nonzero(reps >= stat)) / (b + 1))
    return TestReport(test=name, statistic=float(stat), critical_value=crit,
                      p_value=p, reject=bool(stat > crit), alpha=spec.alpha,
                      replicates=b, diagnostics=diagnostics,
                      replicate_statistics=reps)


def bootstrap_resample(sample, rng):
    """n records drawn i.i.d. with replacement; each keeps its censor/status pairing."""
    idx = rng.integers(0, sample.n, size=sample.n)
    return sample.take(idx)


def _auto_tau(check_samples, grid_size):
    """Componentwise 0.8-quantile of the pooled observed points, stepped down
    by 0.05 per coordinate until every sample is at risk there."""
    pts = np.concatenate([s.event_points for s in check_samples], axis=0)
    if len(pts) == 0:
        raise DataError("no observed points; cannot choose an evaluation window")
    tau = np.quantile(pts, 0.8, axis=0)
    steps = 0
    while any(at_risk(s, tau) == 0 for s in check_samples):
        tau = tau - 0.05
        steps += 1
        if np.max(tau) <= 0.0:
            raise DataError("no window with a positive at-risk count exists")
    tau = np.minimum(np.maximum(tau, 1e-9), 1.0)
    return (float(tau[0]), float(tau[1])), steps


def _resolve_tau(check_samples, tau, grid_size):
    if tau is not None:
        t = (float(tau[0]), float(tau[1]))
        if not (0.0 < t[0] <= 1.0 and 0.0 < t[1] <= 1.0):
            raise ConfigError(f"window corner {t} must lie in (0,1]^2")
        if any(at_risk(s, t) == 0 for s in check_samples):
            raise ConfigError(f"requested window corner {t} has an empty at-risk set")
        return t, {"tau": list(t), "tauSource": "given"}
    t, steps = _auto_tau(check_samples, grid_size)
    return t, {"tau": list(t), "tauSource": "auto", "tauFallbackSteps": steps}


# ---------------------------------------------------------------------------
# independence
# ---------------------------------------------------------------------------

def _independence_diff(sample, grid):
    """Matrix of Hhat(t) - Hhat_1(t1)*Hhat_2(t2) over the grid nodes."""
    surf = nelson_aalen_surface(sample, grid).values
    h1 = marginal_nelson_aalen(sample, 0).eval(grid.xs)
    h2 = marginal_nelson_aalen(sample, 1).eval(grid.ys)
    return surf - np.outer(h1, h2)


def independence_test(sample, spec, tau=None):
    """Sup-norm test of H = H1*H2 over a node grid on [0, tau].

    The statistic is sqrt(n) * max_t |Hhat(t) - Hhat_1(t1) Hhat_2(t2)|;
    each replicate resamples records and recenters at the original
    difference surface before taking the sup.  tau defaults to the
    componentwise 0.8-quantile of the observed points (stepping down
    if nobody is at risk there); an explicit tau with an empty at-risk
    set is refused.
    """
    t, diag = _resolve_tau([sample], tau, spec.grid_size)
    grid = Grid(spec.grid_size, t)
    root_n = math.sqrt(sample.n)
    base = _independence_diff(sample, grid)
    stat = root_n * float(np.max(np.abs(base)))

    def one(r):
        rng = substream(spec.seed, BOOTSTRAP, r)
        rs = bootstrap_resample(sample, rng)
        return root_n * float(np.max(np.abs(_independence_diff(rs, grid) - base)))

    reps = run_indexed(one, spec.replicates, spec.workers)
    diag.update({"gridSize": spec.grid_size, "seed": spec.seed, "n": sample.n})
    return _finish("independence", stat, reps, spec, diag)


# ---------------------------------------------------------------------------
# two-sample hazard order
# ---------------------------------------------------------------------------

def hazard_order_test(sample_f, sample_g, spec, region=None, tau=None):
    """Pooled-bootstrap test of ordered hazards between two samples.

    With a fixed region the statistic is the signed, scaled difference
    sqrt(nm/N) * (Hhat_F(A) - Hhat_G(A)).  Without one it is the sup over
    lower rectangles [0, z] for z on a node grid, signed ('one-sided') or
    absolute ('two-sided') per spec.sided.  Replicates draw N records from
    the pooled multiset, assign the first n to F and the rest to G, and
    recompute the same statistic with no extra centering: pooling itself
    imposes the null.
    """
    n, m = sample_f.n, sample_g.n
    total = n + m
    scale = math.sqrt(n * m / total)
    pooled = CensoredSample(sample_f.records + sample_g.records)
    diag = {"n": n, "m": m, "seed": spec.seed, "sided": spec.sided}

    if region is not None:
        def stat_fn(sf, sg):
            return scale * (nelson_aalen(sf, region) - nelson_aalen(sg, region))
        diag["regionMode"] = "fixed"
    else:
        t, tdiag = _resolve_tau([sample_f, sample_g], tau, spec.grid_size)
        grid = Grid(spec.grid_size, t)
        diag.update(tdiag)
        diag["regionMode"] = "grid"
        diag["gridSize"] = spec.grid_size

        def stat_fn(sf, sg):
            diff = nelson_aalen_surface(sf, grid).values - nelson_aalen_surface(sg, grid).values
            if spec.sided == "two-sided":
                return scale * float(np.max(np.abs(diff)))
            return scale * float(np.max(diff))

    stat = stat_fn(sample_f, sample_g)

    def one(r):
        rng = substream(spec.seed, BOOTSTRAP, r)
        idx = rng.integers(0, total, size=total)
        return stat_fn(pooled.take(idx[:n]), pooled.take(idx[n:]))

    reps = run_indexed(one, spec.replicates, spec.workers)
    return _finish("hazard-order", stat, reps, spec, diag)


# ---------------------------------------------------------------------------
# FGM copula-parameter order
# ---------------------------------------------------------------------------

def _order_window_region(tau):
    t1, t2 = float(tau[0]), float(tau[1])

    def pred(pts):
        x, y = pts[..., 0], pts[..., 1]
        return (x <= t1) & (y <= t2) & fgm_order_region(x, y)

    return PredicateRegion(pred)


def _km_quantile_row(cdf, levels):
    """Vectorized generalized inverse; undefined levels get a sentinel above 1."""
    vals, locs = cdf.values, cdf.locations
    out = np.full(len(levels), 2.0)
    ok = np.zeros(len(levels), dtype=bool)
    if len(vals):
        idx = np.searchsorted(vals, levels, side="left")
        good = idx < len(vals)
        out[good] = locs[idx[good]]
        ok = good
    return out, ok


def _copula_corner_surface(sample, ps, qs):
    """Hhat at the KM-quantile corner lattice; masks mark attainable levels."""
    f = kaplan_meier(marginal_nelson_aalen(sample, 0))
    g = kaplan_meier(marginal_nelson_aalen(sample, 1))
    xs, x_ok = _km_quantile_row(f, ps)
    ys, y_ok = _km_quantile_row(g, qs)
    vals = surface_values(sample.event_points, jump_masses(sample), xs, ys)
    return vals, x_ok, y_ok


def fgm_order_test(sample1, sample2, tau, spec, marginals_equal):
    """One-sided test of a smaller copula parameter in sample1 than sample2.

    The comparison lives on the copula scale inside A = [0, tau] cut down
    to the set where a larger parameter strictly raises the hazard
    (1 - 2u - 2v + 3uv > 0); tau must be componentwise below 1 so the
    joint survival stays positive on the window.

    marginals_equal=True treats both samples as already carrying the same
    known marginals on the copula (uniform) scale: the statistic is the
    scaled difference of the two estimates over the fixed region A, and
    replicates use the pooled resampling of the two-sample order test.

    marginals_equal=False estimates each sample's marginals: for grid
    levels (p, q) in A the statistic is the sup of the scaled difference
    of the estimates at the KM-quantile corners; levels whose quantile is
    unattainable in either sample are dropped (counted in diagnostics).
    Replicates resample each sample separately and center each estimate
    at its original surface before taking the sup.
    """
    t = (float(tau[0]), float(tau[1]))
    if not (0.0 < t[0] < 1.0 and 0.0 < t[1] < 1.0):
        raise ConfigError(f"tau components must lie strictly inside (0,1), got {t}")
    n, m = sample1.n, sample2.n
    total = n + m
    scale = math.sqrt(n * m / total)
    diag = {"n": n, "m": m, "seed": spec.seed, "tau": list(t),
            "marginalsEqual": bool(marginals_equal)}

    if marginals_equal:
        region = _order_window_region(t)
        pooled = CensoredSample(sample1.records + sample2.records)

        def stat_fn(s1, s2):
            return scale * (nelson_aalen(s2, region) - nelson_aalen(s1, region))

        stat = stat_fn(sample1, sample2)

        def one(r):
            rng = substream(spec.seed, BOOTSTRAP, r)
            idx = rng.integers(0, total, size=total)
            return stat_fn(pooled.take(idx[:n]), pooled.take(idx[n:]))

        reps = run_indexed(one, spec.replicates, spec.workers)
        return _finish("fgm-order", stat, reps, spec, diag)

    # unknown marginals: KM-quantile corner lattice
    ps = np.linspace(0.0, t[0], spec.grid_size + 1)[1:]
    qs = np.linspace(0.0, t[1], spec.grid_size + 1)[1:]
    in_region = fgm_order_region(ps[:, None], qs[None, :])

    v1, x1, y1 = _copula_corner_surface(sample1, ps, qs)
    v2, x2, y2 = _copula_corner_surface(sample2, ps, qs)
    usable = in_region & (x1 & x2)[:, None] & (y1 & y2)[None, :]
    dropped = int(np.count_nonzero(in_region) - np.count_nonzero(usable))
    diag.update({"gridSize": spec.grid_size, "droppedNodes": dropped,
                 "usableNodes": int(np.count_nonzero(usable))})
    if not np.any(usable):
        raise QuantileRangeError(
            "every copula-scale node in the order region has an unattainable KM quantile")
    stat = scale * float(np.max((v2 - v1)[usable]))

    def one(r):
        r1 = bootstrap_resample(sample1, substream(spec.seed, BOOTSTRAP, r))
        r2 = bootstrap_resample(sample2, substream(spec.seed, BOOTSTRAP_SECOND, r))
        w1, a1, b1 = _copula_corner_surface(r1, ps, qs)
        w2, a2, b2 = _copula_corner_surface(r2, ps, qs)
        ok = usable & (a1 & a2)[:, None] & (b1 & b2)[None, :]
        if not np.any(ok):
            return -math.inf
        centered = (w2 - v2) - (w1 - v1)
        return scale * float(np.max(centered[ok]))

    reps = run_indexed(one, spec.replicates, spec.workers)
    diag["emptyReplicates"] = int(np.count_nonzero(np.isneginf(reps)))
    return _finish("fgm-order", stat, reps, spec, diag)
