"""Monte Carlo experiments checking the estimator's limit behavior at desk scale.

Five experiment kinds:

  clt         mean, variance, and 1-D normality of sqrt(n)(Hhat - H) at
              checkpoint corners, against quadrature references,
  glivenko    sup |Z_n/n - S*P(t in xi)| along a doubling n-ladder,
  iid_repr    difference between sqrt(n)(Hhat_A - H_A) and its martingale
              jump-sum representation along an n-ladder,
  size_power  rejection-rate tables for the bootstrap tests,
  coverage    uniform-band coverage of the independence difference surface.

Ladders reuse one maximal sample per replicate and take prefixes, so the
rungs are paired and convergence comparisons are low-noise.  Reference
values come from quadrature (or closed forms), never from the estimators
under test.  Thresholds are only asserted when the replicate count is at
least MIN_REPLICATES_FOR_THRESHOLDS; smaller runs report numbers with an
'insufficient replicates' note instead of a verdict.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import censoring as cen
from .errors import ConfigError, DomainError
from .estimators import (asymptotic_cov, at_risk, compensator_residual, nelson_aalen,
                         simulate_sample)
from .geometry import Grid, LowerRect
from .inference import (BootstrapSpec, _finish, _independence_diff, _resolve_tau,
                        bootstrap_resample, fgm_order_test, hazard_order_test,
                        independence_test)
from .models import integrated_hazard
from .quadrature import QuadratureSpec, midpoints
from .util import BOOTSTRAP, DATA, PROBE, run_indexed, substream

__all__ = ["MCConfig", "MCReport", "MIN_REPLICATES_FOR_THRESHOLDS",
           "verify_clt", "verify_glivenko", "verify_iid_representation",
           "size_power_study", "coverage_study"]

MIN_REPLICATES_FOR_THRESHOLDS = 50


@dataclass(frozen=True)
class MCConfig:
    model: object
    censor_model: object
    n: int = 500
    replicates: int = 200
    grid_size: int = 32
    seed: int = 0
    workers: int = 1
    quadrature: QuadratureSpec = QuadratureSpec()

    def __post_init__(self):
        if self.replicates < 2:
            raise ConfigError("replicates must be at least 2")
        if self.n < 1:
            raise ConfigError("n must be at least 1")
        if self.grid_size < 2:
            raise ConfigError("grid_size must be at least 2")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")


@dataclass
class MCReport:
    """Row-per-check report; every row names its tolerance and reference source."""

    experiment: str
    rows: list
    passed: object          # True / False / None (no verdict possible)
    runtime: float
    meta: dict = field(default_factory=dict)

    def to_json(self):
        return {"experiment": self.experiment, "rows": self.rows,
                "passed": self.passed, "runtime": self.runtime, "meta": self.meta}

    def csv_rows(self):
        cols = ["name", "value", "se", "reference", "referenceSource", "tolerance", "passed"]
        out = [cols]
        for r in self.rows:
            out.append([r.get(c, "") for c in cols])
        return out


def _row(name, value, se, reference, source, tolerance, passed):
    return {"name": name, "value": value, "se": se, "reference": reference,
            "referenceSource": source, "tolerance": tolerance, "passed": passed}


def _overall(rows):
    flags = [r["passed"] for r in rows if r["tolerance"] != "informational"]
    if any(v is False for v in flags):
        return False
    if any(v is None for v in flags) or not flags:
        return None
    return True


def _guarded(replicates, ok):
    if replicates < MIN_REPLICATES_FOR_THRESHOLDS:
        return None
    return bool(ok)


def _inclusion_reference(censor_model, pts):
    return np.asarray(cen.inclusion_prob(censor_model, pts), dtype=float)


# ---------------------------------------------------------------------------
# CLT at checkpoints
# ---------------------------------------------------------------------------

def verify_clt(cfg, checkpoints, var_rtol=0.10, ks_bound=0.05,
               checks=("mean", "variance", "normality")):
    """Distribution of sqrt(n)(Hhat_At - H_At) at each checkpoint corner.

    Emits, per checkpoint and per requested check, a row comparing the
    empirical mean to 0 (3 SE), the empirical variance to the limit
    covariance quadrature (relative tolerance var_rtol), and the
    Kolmogorov distance of standardized replicate values to the standard
    normal CDF (absolute bound ks_bound).
    """
    start = time.perf_counter()
    pts = [ (float(t[0]), float(t[1])) for t in checkpoints ]
    truth = np.array([float(integrated_hazard(cfg.model, LowerRect(t), cfg.quadrature))
                      for t in pts])
    root_n = math.sqrt(cfg.n)

    def one(r):
        s = simulate_sample(cfg.model, cfg.censor_model, cfg.n,
                            substream(cfg.seed, DATA, r), form="latent")
        return np.array([root_n * (nelson_aalen(s, LowerRect(t)) - truth[i])
                         for i, t in enumerate(pts)])

    vals = np.array(run_indexed(one, cfg.replicates, cfg.workers))   # (R, K)
    rows = []
    big_enough = cfg.replicates
    for i, t in enumerate(pts):
        x = vals[:, i]
        mean, sd = float(x.mean()), float(x.std(ddof=1))
        se = sd / math.sqrt(cfg.replicates)
        label = f"({t[0]:g},{t[1]:g})"
        if "mean" in checks:
            rows.append(_row(f"mean@{label}", mean, se, 0.0,
                             "limit theorem (mean zero)",
                             "|mean| <= 3*SE", _guarded(big_enough, abs(mean) <= 3 * se)))
        if "variance" in checks:
            ref = float(_limit_variance(cfg, t))
            var = float(x.var(ddof=1))
            vse = var * math.sqrt(2.0 / max(cfg.replicates - 1, 1))
            ok = abs(var - ref) <= var_rtol * abs(ref)
            rows.append(_row(f"variance@{label}", var, vse, ref,
                             "limit covariance quadrature",
                             f"relative error <= {var_rtol}", _guarded(big_enough, ok)))
        if "normality" in checks:
            from scipy import stats   # not at module level: it dominates every CLI command's start

            z = (x - mean) / sd if sd > 0 else x * 0.0
            ks = float(stats.kstest(z, "norm").statistic)
            rows.append(_row(f"normality@{label}", ks, None, 0.0,
                             "standard normal CDF",
                             f"Kolmogorov distance <= {ks_bound}",
                             _guarded(big_enough, ks <= ks_bound)))
    meta = {"n": cfg.n, "replicates": cfg.replicates, "seed": cfg.seed,
            "checkpoints": [list(t) for t in pts]}
    return MCReport("clt", rows, _overall(rows), time.perf_counter() - start, meta)


def _limit_variance(cfg, t):
    cm = cfg.censor_model
    if cm is not None and cm.family == "full":
        cm = None
    return asymptotic_cov(cfg.model, cm, LowerRect(t), LowerRect(t), cfg.quadrature).value


# ---------------------------------------------------------------------------
# Glivenko-Cantelli ladder for Z_n / n
# ---------------------------------------------------------------------------

def verify_glivenko(cfg, ladder=(250, 500, 1000, 2000), bound=0.05):
    """Median of sup_t |Z_n(t)/n - S(t) P(t in xi)| along an n-ladder.

    Prefix-paired sampling: each replicate draws one sample of max(ladder)
    subjects and evaluates every rung on its prefix.  Pass needs monotone
    nonincreasing medians and a final median at or below the bound.
    """
    start = time.perf_counter()
    ladder = sorted(int(n) for n in ladder)
    grid = Grid(cfg.grid_size, (1.0, 1.0))
    nodes = grid.nodes()
    ref = (np.asarray(cfg.model.survival(nodes), dtype=float)
           * _inclusion_reference(cfg.censor_model, nodes))

    def one(r):
        s = simulate_sample(cfg.model, cfg.censor_model, ladder[-1],
                            substream(cfg.seed, DATA, r), form="latent")
        sups = []
        for n in ladder:
            pre = s.take(np.arange(n))
            z = at_risk(pre, nodes)
            sups.append(float(np.max(np.abs(z / n - ref))))
        return np.array(sups)

    vals = np.array(run_indexed(one, cfg.replicates, cfg.workers))   # (R, L)
    medians = np.median(vals, axis=0)
    rows = []
    for i, n in enumerate(ladder):
        rows.append(_row(f"median_sup@n={n}", float(medians[i]), None,
                         0.0, "survival times inclusion probability",
                         "informational", None))
    mono = bool(np.all(np.diff(medians) <= 1e-12))
    rows.append(_row("ladder_monotone", float(np.max(np.diff(medians))), None, 0.0,
                     "paired prefix ladder", "medians nonincreasing",
                     _guarded(cfg.replicates, mono)))
    rows.append(_row("final_median", float(medians[-1]), None, bound,
                     "empirical-process rate at the largest n",
                     f"<= {bound}", _guarded(cfg.replicates, medians[-1] <= bound)))
    meta = {"ladder": ladder, "replicates": cfg.replicates, "seed": cfg.seed,
            "gridSize": cfg.grid_size}
    return MCReport("glivenko", rows, _overall(rows), time.perf_counter() - start, meta)


# ---------------------------------------------------------------------------
# i.i.d. / martingale representation
# ---------------------------------------------------------------------------

def verify_iid_representation(cfg, region, ladder=(250, 500, 1000, 2000)):
    """Gap between sqrt(n)(Hhat_A - H_A) and the weighted jump-sum form.

    The representation integrates 1/(S*P) against the counting measure
    minus its compensator; its gap to the centered estimator should
    shrink in probability, checked as nonincreasing median |gap| along a
    prefix-paired n-ladder.
    """
    start = time.perf_counter()
    ladder = sorted(int(n) for n in ladder)
    if not isinstance(region, LowerRect):
        raise ConfigError("the representation check uses a lower rectangle region")
    truth = float(integrated_hazard(cfg.model, region, cfg.quadrature))

    def weight(pts):
        s = np.asarray(cfg.model.survival(pts), dtype=float)
        p = _inclusion_reference(cfg.censor_model, pts)
        sp = s * p
        if np.any(sp <= 1e-12):
            raise DomainError("S * P(t in xi) is not bounded below on the region")
        return 1.0 / sp

    # surface the domain problem before burning replicates
    k0 = 64
    mx, my = midpoints(region.corner[0], k0), midpoints(region.corner[1], k0)
    gx, gy = np.meshgrid(mx, my, indexing="ij")
    weight(np.stack([gx, gy], axis=-1))

    def one(r):
        s = simulate_sample(cfg.model, cfg.censor_model, ladder[-1],
                            substream(cfg.seed, DATA, r), form="latent")
        gaps = []
        for n in ladder:
            pre = s.take(np.arange(n))
            lhs = math.sqrt(n) * (nelson_aalen(pre, region) - truth)
            resid = compensator_residual(pre, cfg.model, region, cfg.quadrature,
                                         weight=weight)
            gaps.append(lhs - resid.value / math.sqrt(n))
        return np.array(gaps)

    vals = np.abs(np.array(run_indexed(one, cfg.replicates, cfg.workers)))
    medians = np.median(vals, axis=0)
    rows = []
    for i, n in enumerate(ladder):
        rows.append(_row(f"median_gap@n={n}", float(medians[i]), None, 0.0,
                         "martingale jump-sum representation", "informational", None))
    mono = bool(np.all(np.diff(medians) <= 1e-12))
    rows.append(_row("ladder_monotone", float(np.max(np.diff(medians))), None, 0.0,
                     "paired prefix ladder", "medians nonincreasing",
                     _guarded(cfg.replicates, mono)))
    meta = {"ladder": ladder, "replicates": cfg.replicates, "seed": cfg.seed,
            "region": [list(map(float, region.corner))], "truth": truth}
    return MCReport("iid_repr", rows, _overall(rows), time.perf_counter() - start, meta)


# ---------------------------------------------------------------------------
# size / power tables
# ---------------------------------------------------------------------------

def _scenario_reject(cfg, s_idx, scen, r):
    """One replicate of one scenario; returns the test's reject flag."""
    rng = substream(cfg.seed, DATA, s_idx, r)
    boot_seed = int(substream(cfg.seed, PROBE, s_idx, r).integers(2 ** 62))
    test = scen["test"]
    alpha = scen.get("alpha", 0.05)
    b = scen.get("B", 200)
    censor = scen.get("censor_model", cfg.censor_model)
    spec = BootstrapSpec(replicates=b, alpha=alpha, seed=boot_seed,
                         grid_size=scen.get("grid_size", cfg.grid_size),
                         sided=scen.get("sided", "one-sided"), workers=1)
    if test == "independence":
        model = scen.get("model", cfg.model)
        sample = simulate_sample(model, censor, scen.get("n", cfg.n), rng, form="latent")
        return independence_test(sample, spec).reject
    if test == "hazard-order":
        mf = scen.get("model_f", cfg.model)
        mg = scen.get("model_g", cfg.model)
        sf = simulate_sample(mf, censor, scen.get("n", cfg.n), rng, form="latent")
        sg = simulate_sample(mg, censor, scen.get("m", scen.get("n", cfg.n)), rng,
                             form="latent")
        return hazard_order_test(sf, sg, spec, region=scen.get("region")).reject
    if test == "fgm-order":
        m1 = scen.get("model_1", cfg.model)
        m2 = scen.get("model_2", cfg.model)
        s1 = simulate_sample(m1, censor, scen.get("n", cfg.n), rng, form="latent")
        s2 = simulate_sample(m2, censor, scen.get("m", scen.get("n", cfg.n)), rng,
                             form="latent")
        return fgm_order_test(s1, s2, scen.get("tau", (0.8, 0.8)), spec,
                              scen.get("marginals_equal", True)).reject
    raise ConfigError(f"unknown test {test!r}")


def size_power_study(cfg, scenarios):
    """Rejection-rate table, one row per scenario, with binomial SEs.

    A scenario may carry 'band': (lo, hi) for an absolute rate check, or
    'exceeds': (other scenario name, margin) for a power-vs-size check.
    """
    start = time.perf_counter()
    rates = {}
    rows = []
    for s_idx, scen in enumerate(scenarios):
        flags = run_indexed(lambda r: _scenario_reject(cfg, s_idx, scen, r),
                            cfg.replicates, cfg.workers)
        rate = float(np.mean(flags))
        rates[scen["name"]] = rate
        se = math.sqrt(max(rate * (1 - rate), 1e-12) / cfg.replicates)
        rows.append({"scenario": scen, "rate": rate, "se": se})
    out = []
    for entry in rows:
        scen, rate, se = entry["scenario"], entry["rate"], entry["se"]
        if "band" in scen:
            lo, hi = scen["band"]
            out.append(_row(f"rate:{scen['name']}", rate, se, [lo, hi],
                            "pre-registered rejection band", f"in [{lo}, {hi}]",
                            _guarded(cfg.replicates, lo <= rate <= hi)))
        elif "exceeds" in scen:
            other, margin = scen["exceeds"]
            ref = rates[other]
            out.append(_row(f"rate:{scen['name']}", rate, se, ref,
                            f"rate of scenario {other!r}",
                            f">= reference + {margin}",
                            _guarded(cfg.replicates, rate >= ref + margin)))
        else:
            out.append(_row(f"rate:{scen['name']}", rate, se, None,
                            "none", "informational", None))
    meta = {"replicates": cfg.replicates, "seed": cfg.seed,
            "scenarios": [s["name"] for s in scenarios]}
    return MCReport("size_power", out, _overall(out), time.perf_counter() - start, meta)


# ---------------------------------------------------------------------------
# confidence-band coverage
# ---------------------------------------------------------------------------

def _truth_difference(model, grid, mesh=1024):
    """True H - H1*H2 on the grid nodes (exact zero when theta is 0)."""
    lam1 = -np.log1p(-np.asarray(model.marginal_x.cdf(grid.xs), dtype=float))
    lam2 = -np.log1p(-np.asarray(model.marginal_y.cdf(grid.ys), dtype=float))
    if model.theta == 0.0:
        return np.zeros((len(grid.xs), len(grid.ys)))
    mx, my = midpoints(1.0, mesh), midpoints(1.0, mesh)
    gx, gy = np.meshgrid(mx, my, indexing="ij")
    h = np.asarray(model.hazard(np.stack([gx, gy], axis=-1)), dtype=float)
    cum = (h / (mesh * mesh)).cumsum(axis=0).cumsum(axis=1)
    padded = np.zeros((mesh + 1, mesh + 1))
    padded[1:, 1:] = cum
    ix = np.searchsorted(mx, grid.xs, side="right")
    iy = np.searchsorted(my, grid.ys, side="right")
    surface = padded[np.ix_(ix, iy)]
    return surface - np.outer(lam1, lam2)


def coverage_study(cfg, alpha=0.05, b=200, band=(0.88, 0.99)):
    """Fraction of replicates whose bootstrap band covers the true difference.

    The band for H - H1*H2 is the estimate plus/minus c_alpha/sqrt(n)
    uniformly over the grid; one replicate is covered when the true
    surface stays inside, which is exactly sup sqrt(n)|Dhat - truth|
    <= c_alpha.
    """
    start = time.perf_counter()

    def one(r):
        sample = simulate_sample(cfg.model, cfg.censor_model, cfg.n,
                                 substream(cfg.seed, DATA, r), form="latent")
        t, _ = _resolve_tau([sample], None, cfg.grid_size)
        grid = Grid(cfg.grid_size, t)
        root_n = math.sqrt(sample.n)
        base = _independence_diff(sample, grid)
        boot_seed = int(substream(cfg.seed, PROBE, r).integers(2 ** 62))
        spec = BootstrapSpec(replicates=b, alpha=alpha, seed=boot_seed,
                             grid_size=cfg.grid_size, workers=1)

        def rep(j):
            rng = substream(boot_seed, BOOTSTRAP, j)
            rs = bootstrap_resample(sample, rng)
            return root_n * float(np.max(np.abs(_independence_diff(rs, grid) - base)))

        reps = run_indexed(rep, b, 1)
        crit = _finish("band", 0.0, reps, spec, {}).critical_value
        truth = _truth_difference(cfg.model, grid)
        return float(np.max(np.abs(base - truth))) * root_n <= crit

    flags = run_indexed(one, cfg.replicates, cfg.workers)
    rate = float(np.mean(flags))
    se = math.sqrt(max(rate * (1 - rate), 1e-12) / cfg.replicates)
    lo, hi = band
    rows = [_row("coverage", rate, se, [lo, hi],
                 f"nominal level {1 - alpha}", f"in [{lo}, {hi}]",
                 _guarded(cfg.replicates, lo <= rate <= hi))]
    meta = {"n": cfg.n, "replicates": cfg.replicates, "B": b, "alpha": alpha,
            "seed": cfg.seed}
    return MCReport("coverage", rows, _overall(rows),
                    time.perf_counter() - start, meta)
