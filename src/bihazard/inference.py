"""Bootstrap resampling and the three hypothesis tests.

All tests share one calibration rule: with B replicate statistics, the
critical value is the k-th largest replicate with k = floor(alpha*(B+1)),
the p-value is (1 + #{replicate >= statistic}) / (B+1), and the null is
rejected exactly when the statistic exceeds the critical value.  Those
three conventions are mutually consistent (reject iff p <= alpha holds
even with ties) and give a valid level for finite B.

Every test draws its replicates through one engine, `_bootstrap`: replicate r resamples
subjects together with their censoring sets from the substream (masterSeed, branch, r),
either per sample or from the pooled two-sample multiset, and the pooled statistics all come
from `_pooled`.  A resample is a count vector over the base records (record i drawn w_i
times: the exchangeable-weights bootstrap), so no resample is built: chunks of count rows,
sized by a fixed byte budget, go through the weighted estimators on the base sample, one
statistic per row, all rows at once (their running sums are points-major, records x rows).
What the estimators derive from the base sample alone (the Fenwick layout at its events, the
marginals' pair table) is built once and kept by the sample for its lifetime, so it serves
every chunk of every bootstrap on that sample.  `TESTS` is the one dispatch of the three
tests, for `bihazard test` and the Monte Carlo scenarios alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .decode import INT, NUM, Schema
from .errors import ConfigError, DataError, QuantileRangeError
from .estimators import (at_risk, cell_surface, jump_masses, kaplan_meier,
                         marginal_nelson_aalen, nelson_aalen, nelson_aalen_surface)
from .geometry import Grid, Region
from .models import fgm_order_region
from .util import BOOTSTRAP, substream

__all__ = [
    "BootstrapSpec", "check_bootstrap", "TestReport", "bootstrap_resample",
    "independence_test", "hazard_order_test", "fgm_order_test", "TESTS",
]


@dataclass(frozen=True)
class BootstrapSpec:
    """Replicate count, level, master seed, sup-evaluation grid, sidedness.

    workers is accepted and validated for compatibility; replicates always
    run in order in one thread, so it has no effect.
    """

    replicates: int = 999
    alpha: float = 0.05
    seed: int = 0
    grid_size: int = 64
    sided: str = "one-sided"
    workers: int = 1

    def __post_init__(self):
        for name in ("replicates", "alpha", "seed", "grid_size", "workers"):
            Schema(NUM if name == "alpha" else INT).decode(getattr(self, name), name)
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


def check_bootstrap(opt, where=""):
    """Refuse a bad B, alpha, grid size or sided in opt before any replicate, naming the key."""
    for key in [k for k in ("B", "alpha", "grid_size", "gridSize", "sided") if k in opt]:
        field = {"B": "replicates", "gridSize": "grid_size"}.get(key, key)
        try:
            BootstrapSpec(**{field: opt[key]})
        except ConfigError as exc:
            raise ConfigError(f"{where}{key}: {exc}") from None


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


# A chunk holds as many replicates as fit rows x (records + grid nodes) float64s in this
# budget.  A points-major row costs little, so the budget spreads each estimator call's
# fixed cost over many rows; 512 KiB was no faster at n = 1000 and added peak memory.
_CHUNK_BYTES = 1 << 18


def _count_rows(draws, n):
    """One int32 row per index draw: how often each of the n records was drawn."""
    return np.array([np.bincount(idx, minlength=n) for idx in draws], dtype=np.int32)


def _bootstrap(name, stat, stat_fn, samples, spec, diag, pooled=False):
    """Report for stat calibrated by spec.replicates values of stat_fn on resamples.

    Separate resampling draws sample k of replicate r as `bootstrap_resample`
    does, from the substream (seed, BOOTSTRAP + k, r), so the second sample
    uses BOOTSTRAP_SECOND.  Pooled resampling draws n + m records from the
    union of the two samples (the first one's records first) on
    (seed, BOOTSTRAP, r) and gives the first n to the first sample, which
    imposes the null of one common law.  Each draw becomes a row of counts,
    and stat_fn gets a chunk of rows and returns one statistic per row:
    separately, one (rows x n_k) matrix per sample; pooled, one
    (2 rows x n + m) matrix whose first half counts the first sample's draws.
    """
    sizes = [s.n for s in samples]
    total = sum(sizes)
    width = (2 * total if pooled else max(sizes)) + spec.grid_size ** 2
    rows = max(1, _CHUNK_BYTES // (8 * width))
    reps = []
    for lo in range(0, spec.replicates, rows):
        chunk = range(lo, min(lo + rows, spec.replicates))
        if pooled:
            draws = [substream(spec.seed, BOOTSTRAP, r).integers(0, total, size=total) for r in chunk]
            counts = [_count_rows([d[:sizes[0]] for d in draws] + [d[sizes[0]:] for d in draws], total)]
        else:
            counts = [_count_rows([substream(spec.seed, BOOTSTRAP + k, r).integers(0, n, size=n)
                                   for r in chunk], n) for k, n in enumerate(sizes)]
        reps.append(stat_fn(*counts))
    return _finish(name, stat, np.concatenate(reps), spec, diag)


def _pooled(name, first, second, estimate, spec, diag, sided):
    """Pooled-bootstrap report for sqrt(nm/N) * max (first's estimate - second's), signed or absolute
    per sided; estimate(union, w) gives a value or an array per count row of the two samples' union."""
    n, m = first.n, second.n
    scale = math.sqrt(n * m / (n + m))
    union = first.concat(second)

    def stat_fn(w):
        h = estimate(union, w)
        diff = h[:len(w) // 2] - h[len(w) // 2:]
        if sided == "two-sided":
            diff = np.abs(diff)
        return scale * np.max(diff.reshape(len(diff), -1), axis=1)

    own = np.arange(n + m) < n          # the count rows that give the union back the two samples
    return _bootstrap(name, float(stat_fn(np.array([own, ~own], dtype=np.int32))[0]), stat_fn,
                      [first, second], spec, diag, pooled=True)


def _auto_tau(check_samples):
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


def _resolve_tau(check_samples, tau):
    if tau is not None:
        t = (float(tau[0]), float(tau[1]))
        if not (0.0 < t[0] <= 1.0 and 0.0 < t[1] <= 1.0):
            raise ConfigError(f"window corner {t} must lie in (0,1]^2")
        if any(at_risk(s, t) == 0 for s in check_samples):
            raise ConfigError(f"requested window corner {t} has an empty at-risk set")
        return t, {"tau": list(t), "tauSource": "given"}
    t, steps = _auto_tau(check_samples)
    return t, {"tau": list(t), "tauSource": "auto", "tauFallbackSteps": steps}


def option_error(test, sided, region=None, tau=None):
    """Why a test refuses these options, or None: the tests raise it when called, and
    `mc.size_power_study` asks it for every scenario before any replicate runs."""
    if test == "hazard-order" and region is not None and tau is not None:
        return "tau sets the grid window; a fixed region takes no tau"
    if test == "fgm-order" and sided != "one-sided":
        return "fgm-order is one-sided by construction; sided must be 'one-sided'"
    return None


# ---------------------------------------------------------------------------
# independence
# ---------------------------------------------------------------------------

def _independence_diff(sample, grid, weights=None):
    """Matrix of Hhat(t) - Hhat_1(t1)*Hhat_2(t2) over the grid nodes (one per weight row)."""
    surf = nelson_aalen_surface(sample, grid, weights=weights).values
    h1 = marginal_nelson_aalen(sample, 0, weights).eval(grid.xs)
    h2 = marginal_nelson_aalen(sample, 1, weights).eval(grid.ys)
    surf -= h1[..., :, None] * h2[..., None, :]
    return surf


def independence_test(sample, spec, tau=None):
    """Sup-norm test of H = H1*H2 over a node grid on [0, tau].

    The statistic is sqrt(n) * max_t |Hhat(t) - Hhat_1(t1) Hhat_2(t2)|;
    each replicate resamples records and recenters at the original
    difference surface before taking the sup.  tau defaults to the
    componentwise 0.8-quantile of the observed points (stepping down
    if nobody is at risk there); an explicit tau with an empty at-risk
    set is refused.  Deviations are absolute whatever spec.sided says.
    """
    t, diag = _resolve_tau([sample], tau)
    grid = Grid(spec.grid_size, t)
    root_n = math.sqrt(sample.n)
    base = _independence_diff(sample, grid)
    stat = root_n * float(np.max(np.abs(base)))

    def stat_fn(w):
        diff = _independence_diff(sample, grid, w)
        diff -= base
        return root_n * np.max(np.abs(diff, out=diff), axis=(1, 2))

    diag.update({"gridSize": spec.grid_size, "seed": spec.seed, "n": sample.n})
    return _bootstrap("independence", stat, stat_fn, [sample], spec, diag)


# ---------------------------------------------------------------------------
# two-sample hazard order
# ---------------------------------------------------------------------------

def hazard_order_test(sample_f, sample_g, spec, region=None, tau=None):
    """Pooled-bootstrap test of ordered hazards between two samples.

    With a fixed region the statistic is the scaled difference
    sqrt(nm/N) * (Hhat_F(A) - Hhat_G(A)), and a tau is refused.  Without
    one it is the sup over lower rectangles [0, z] for z on a node grid
    over [0, tau].  Either is signed ('one-sided') or absolute
    ('two-sided') per spec.sided.  Replicates draw N records from the
    pooled multiset, assign the first n to F and the rest to G, and
    recompute the same statistic with no extra centering: pooling itself
    imposes the null.
    """
    diag = {"n": sample_f.n, "m": sample_g.n, "seed": spec.seed, "sided": spec.sided,
            "regionMode": "grid" if region is None else "fixed"}
    if refused := option_error("hazard-order", spec.sided, region, tau):
        raise ConfigError(refused)
    if region is not None:
        estimate = lambda union, w: nelson_aalen(union, region, weights=w)
    else:
        t, tdiag = _resolve_tau([sample_f, sample_g], tau)
        grid = Grid(spec.grid_size, t)
        diag.update(tdiag, gridSize=spec.grid_size)
        estimate = lambda union, w: nelson_aalen_surface(union, grid, weights=w).values
    return _pooled("hazard-order", sample_f, sample_g, estimate, spec, diag, spec.sided)


# ---------------------------------------------------------------------------
# FGM copula-parameter order
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _OrderWindow(Region):
    """The FGM order region within the window [0, tau]."""

    tau: tuple

    def at(self, x, y):
        return (x <= self.tau[0]) & (y <= self.tau[1]) & fgm_order_region(x, y)


def _corner_cells(cdf, levels, coords):
    """Per row of a step CDF, the cell of each coordinate among the row's KM-quantile corners
    inf{s : F(s) >= p}, and which levels p are attained.  A corner lies below x exactly when
    F reaches its level before x, so the cell counts the levels at most F at the last location
    below x: one search of every CDF value among the sorted levels serves every row."""
    vals = np.atleast_2d(cdf.values)
    reached = np.zeros((len(vals), vals.shape[1] + 1), dtype=np.int64)
    reached[:, 1:] = np.searchsorted(levels, vals, side="right")
    cells = reached[:, np.searchsorted(cdf.locations, coords, side="left")]
    return cells, np.arange(len(levels)) < reached[:, -1:]


def _copula_corner_surface(sample, ps, qs, weights=None):
    """Hhat at the KM-quantile corner lattice; masks mark attainable levels.

    With a (rows x n) count matrix, each row gets its own lattice, so the
    values and masks gain a leading rows axis; all rows are binned together.
    """
    f = kaplan_meier(marginal_nelson_aalen(sample, 0, weights))
    g = kaplan_meier(marginal_nelson_aalen(sample, 1, weights))
    masses = np.atleast_2d(jump_masses(sample, weights=weights))
    ix, x_ok = _corner_cells(f, ps, sample.event_points[:, 0])
    iy, y_ok = _corner_cells(g, qs, sample.event_points[:, 1])
    vals = cell_surface(ix, iy, masses, len(ps), len(qs))
    return (vals, x_ok, y_ok) if weights is not None else (vals[0], x_ok[0], y_ok[0])


def fgm_order_test(sample1, sample2, tau, spec, marginals_equal):
    """One-sided test of a smaller copula parameter in sample1 than sample2;
    a two-sided spec is refused.

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
    if refused := option_error("fgm-order", spec.sided):
        raise ConfigError(refused)
    t = (float(tau[0]), float(tau[1]))
    if not (0.0 < t[0] < 1.0 and 0.0 < t[1] < 1.0):
        raise ConfigError(f"tau components must lie strictly inside (0,1), got {t}")
    n, m = sample1.n, sample2.n
    scale = math.sqrt(n * m / (n + m))
    diag = {"n": n, "m": m, "seed": spec.seed, "tau": list(t),
            "marginalsEqual": bool(marginals_equal)}

    if marginals_equal:             # the negated estimate makes the pooled difference h2 - h1
        region = _OrderWindow((float(t[0]), float(t[1])))
        return _pooled("fgm-order", sample1, sample2, lambda u, w: -nelson_aalen(u, region, weights=w),
                       spec, diag, "one-sided")

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

    def stat_fn(w1, w2):
        r1, a1, b1 = _copula_corner_surface(sample1, ps, qs, w1)
        r2, a2, b2 = _copula_corner_surface(sample2, ps, qs, w2)
        ok = usable & (a1 & a2)[:, :, None] & (b1 & b2)[:, None, :]
        r2 -= v2
        r1 -= v1
        r2 -= r1
        r2[~ok] = -math.inf
        return scale * np.max(r2, axis=(1, 2))

    report = _bootstrap("fgm-order", stat, stat_fn, [sample1, sample2], spec, diag)
    report.diagnostics["emptyReplicates"] = int(np.count_nonzero(
        np.isneginf(report.replicate_statistics)))
    return report



# test name -> (model keys of its one or two samples, call on (samples, spec, options)), where the
# options are a decoded `bihazard test` config or a Monte Carlo scenario, keyed alike
TESTS = {
    "independence": (("model",), lambda s, spec, opt: independence_test(*s, spec, tau=opt.get("tau"))),
    "hazard-order": (("model_f", "model_g"), lambda s, spec, opt: hazard_order_test(
        *s, spec, region=opt.get("region"), tau=opt.get("tau"))),
    "fgm-order": (("model_1", "model_2"), lambda s, spec, opt: fgm_order_test(
        *s, opt.get("tau", (0.8, 0.8)), spec, opt.get("marginals_equal", True))),
}
