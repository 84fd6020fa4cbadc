"""Monte Carlo experiments checking the estimator's limit behavior at desk scale.

Five experiment kinds:

  clt         mean, variance, and 1-D normality of sqrt(n)(Hhat - H) at
              checkpoint corners, against quadrature references,
  glivenko    sup |Z_n/n - S*P(t in xi)| along a doubling n-ladder,
  iid_repr    difference between sqrt(n)(Hhat_A - H_A) and its martingale
              jump-sum representation along an n-ladder,
  size_power  rejection-rate tables for the bootstrap tests,
  coverage    uniform-band coverage of the independence difference surface.

All five run on one replicate engine: `_draw` draws replicate r's samples
in order from the substream (seed, DATA, [scenario,] r) and `_spec` seeds
its bootstrap on (seed, PROBE, [scenario,] r); `_prefix_ladder` evaluates
every rung of a ladder on prefixes of one max(ladder) sample, so the rungs
are paired and convergence comparisons are low-noise; `_rate_row` gives a
rate, its binomial SE and its check; a scenario calls its test through
`inference.TESTS`, as `bihazard test` does.  Reference values come from
quadrature (or closed forms), never from the estimators under test.
Thresholds are only asserted when the replicate count is at least
MIN_REPLICATES_FOR_THRESHOLDS; smaller runs report numbers with no verdict.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import censoring as cen
from .decode import INT, Schema
from .errors import ConfigError, DomainError
from .estimators import (asymptotic_cov, at_risk, compensator_residual, nelson_aalen,
                         simulate_sample)
from .geometry import Grid, LowerRect
from .inference import (TESTS, BootstrapSpec, _independence_diff, check_bootstrap, independence_test,
                        option_error)
from .models import integrated_hazard
from .quadrature import QuadratureSpec, mesh_values, midpoints
from .util import DATA, PROBE, run_indexed, substream

__all__ = ["MCConfig", "MCReport", "MIN_REPLICATES_FOR_THRESHOLDS",
           "verify_clt", "verify_glivenko", "verify_iid_representation",
           "size_power_study", "coverage_study", "EXPERIMENTS"]

MIN_REPLICATES_FOR_THRESHOLDS = 50


@dataclass(frozen=True)
class MCConfig:
    model: object
    censor_model: object
    n: int = 500
    replicates: int = 200
    grid_size: int = 32
    seed: int = 0
    quadrature: QuadratureSpec = QuadratureSpec()

    def __post_init__(self):
        for name in ("n", "replicates", "grid_size", "seed"):
            Schema(INT).decode(getattr(self, name), name)
        for name, low in (("replicates", 2), ("n", 1), ("grid_size", 2)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be at least {low}")


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


def _row(cfg, name, value, se, reference, source, tolerance="informational", ok=None):
    """One check; it passes when ok holds, with no verdict below the replicate threshold."""
    passed = None if ok is None or cfg.replicates < MIN_REPLICATES_FOR_THRESHOLDS else bool(ok)
    return {"name": name, "value": value, "se": se, "reference": reference,
            "referenceSource": source, "tolerance": tolerance, "passed": passed}


def _overall(rows):
    flags = [r["passed"] for r in rows if r["tolerance"] != "informational"]
    if any(v is False for v in flags):
        return False
    if any(v is None for v in flags) or not flags:
        return None
    return True


def _report(experiment, cfg, rows, start, **meta):
    """The experiment's report; meta always carries the replicate count and seed."""
    return MCReport(experiment, rows, _overall(rows), time.perf_counter() - start,
                    {**meta, "replicates": cfg.replicates, "seed": cfg.seed})


def _at_risk_limit(cfg, x, y):
    """S(t) P(t in xi) at t = (x, y): the limit of Z_n(t)/n, from the model and the censoring."""
    return cfg.model.survival(x, y) * cen.inclusion_prob(cfg.censor_model, x, y)


# ---------------------------------------------------------------------------
# the replicate engine
# ---------------------------------------------------------------------------

def _draw(cfg, path, *draws):
    """Latent samples drawn in order from the substream (seed, DATA, *path); a draw is
    (model, censor model, n), and none means one sample of cfg's model and censoring at cfg.n."""
    rng = substream(cfg.seed, DATA, *path)
    return [simulate_sample(model, censor, n, rng, form="latent")
            for model, censor, n in draws or [(cfg.model, cfg.censor_model, cfg.n)]]


def _spec(cfg, path, **fields):
    """The replicate's BootstrapSpec, seeded from the substream (seed, PROBE, *path)."""
    return BootstrapSpec(seed=int(substream(cfg.seed, PROBE, *path).integers(2 ** 62)), **fields)


def _prefix_ladder(cfg, ladder, rung, label, source):
    """Medians over replicates of rung(prefix of n subjects, n) at each n of the sorted ladder,
    with their informational rows and the ladder_monotone row."""
    def one(r):
        (s,) = _draw(cfg, (r,), (cfg.model, cfg.censor_model, ladder[-1]))
        return np.array([rung(s.take(np.arange(n)), n) for n in ladder])

    medians = np.median(np.array(run_indexed(one, cfg.replicates)), axis=0)
    rows = [_row(cfg, f"{label}@n={n}", float(m), None, 0.0, source)
            for n, m in zip(ladder, medians)]
    rows.append(_row(cfg, "ladder_monotone", float(np.max(np.diff(medians))), None, 0.0,
                     "paired prefix ladder", "medians nonincreasing",
                     np.all(np.diff(medians) <= 1e-12)))
    return medians, rows


def _box(corner, name):
    """The lower rectangle [0, corner] for a corner in (0, 1]^2, or a config error naming it."""
    if not 0.0 < min(corner) <= max(corner) <= 1.0:
        raise ConfigError(f"{name} must lie in (0, 1]^2, got {list(map(float, corner))}")
    return LowerRect(corner)


def _check_tolerance(name, value):
    """Refuse by name a tolerance no result meets: a bound below 0, or a band reversed or off [0, 1]."""
    if np.ndim(value) == 0 and not value >= 0.0:
        raise ConfigError(f"{name} must be at least 0, got {value!r}")
    if np.ndim(value) == 1 and not 0.0 <= value[0] <= value[1] <= 1.0:
        raise ConfigError(f"{name} must be a range [lo, hi] within [0, 1], got {list(value)}")


def _ladder(ladder):
    ladder = sorted(int(n) for n in ladder)
    if not ladder or ladder[0] < 1:
        raise ConfigError(f"ladder must be a nonempty list of sizes of at least 1, got {ladder}")
    return ladder


def _rate_row(cfg, name, flags, check, rates=None, source="pre-registered rejection band"):
    """The share of flagged replicates with its binomial SE, checked against check's
    'band': (lo, hi), named by source, or 'exceeds': (other, margin), a floor of
    rates[other] + margin; informational without either."""
    rate = float(np.mean(flags))
    se = math.sqrt(max(rate * (1 - rate), 1e-12) / cfg.replicates)
    if "band" in check:
        lo, hi = check["band"]
        return _row(cfg, name, rate, se, [lo, hi], source, f"in [{lo}, {hi}]", lo <= rate <= hi)
    if "exceeds" in check:
        other, margin = check["exceeds"]
        return _row(cfg, name, rate, se, rates[other], f"rate of scenario {other!r}",
                    f">= reference + {margin}", rate >= rates[other] + margin)
    return _row(cfg, name, rate, se, None, "none")


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
    unknown = [c for c in checks if c not in ("mean", "variance", "normality")]
    if unknown:
        raise ConfigError(f"unknown check {unknown[0]!r} in checks; expected mean, variance or normality")
    start = time.perf_counter()
    boxes = [_box(t, f"checkpoints[{i}]") for i, t in enumerate(checkpoints)]
    if not boxes:
        raise ConfigError("checkpoints must list at least one corner")
    _check_tolerance("varRtol", var_rtol)
    _check_tolerance("ksBound", ks_bound)
    truth = np.array([float(integrated_hazard(cfg.model, box, cfg.quadrature)) for box in boxes])
    root_n = math.sqrt(cfg.n)

    def one(r):
        (s,) = _draw(cfg, (r,))
        return np.array([root_n * (nelson_aalen(s, box) - truth[i]) for i, box in enumerate(boxes)])

    vals = np.array(run_indexed(one, cfg.replicates))   # (R, K)
    rows = []
    for i, box in enumerate(boxes):
        x = vals[:, i]
        mean, sd = float(x.mean()), float(x.std(ddof=1))
        se = sd / math.sqrt(cfg.replicates)
        label = "({:g},{:g})".format(*box.corner)
        if "mean" in checks:
            rows.append(_row(cfg, f"mean@{label}", mean, se, 0.0, "limit theorem (mean zero)",
                             "|mean| <= 3*SE", abs(mean) <= 3 * se))
        if "variance" in checks:
            ref = float(asymptotic_cov(cfg.model, cfg.censor_model, box, box, cfg.quadrature).value)
            var = float(x.var(ddof=1))
            vse = var * math.sqrt(2.0 / max(cfg.replicates - 1, 1))
            rows.append(_row(cfg, f"variance@{label}", var, vse, ref, "limit covariance quadrature",
                             f"relative error <= {var_rtol}", abs(var - ref) <= var_rtol * abs(ref)))
        if "normality" in checks:
            ks = _normal_distance((x - mean) / sd if sd > 0 else x * 0.0)
            rows.append(_row(cfg, f"normality@{label}", ks, None, 0.0, "standard normal CDF",
                             f"Kolmogorov distance <= {ks_bound}", ks <= ks_bound))
    return _report("clt", cfg, rows, start, n=cfg.n, checkpoints=[list(box.corner) for box in boxes])


def _normal_distance(z):
    """Kolmogorov distance sup |F_n - Phi| of the values z to the standard normal."""
    z = np.sort(z)
    phi = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in z])
    i = np.arange(1, len(z) + 1)
    return float(max(np.max(i / len(z) - phi), np.max(phi - (i - 1) / len(z))))


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
    ladder = _ladder(ladder)
    _check_tolerance("bound", bound)
    nodes = Grid(cfg.grid_size, (1.0, 1.0)).nodes()
    ref = _at_risk_limit(cfg, *nodes.T)
    medians, rows = _prefix_ladder(
        cfg, ladder, lambda pre, n: float(np.max(np.abs(at_risk(pre, nodes) / n - ref))),
        "median_sup", "survival times inclusion probability")
    rows.append(_row(cfg, "final_median", float(medians[-1]), None, bound,
                     "empirical-process rate at the largest n", f"<= {bound}",
                     medians[-1] <= bound))
    return _report("glivenko", cfg, rows, start, ladder=ladder, gridSize=cfg.grid_size)


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
    ladder = _ladder(ladder)
    if not isinstance(region, LowerRect):
        raise ConfigError("the representation check uses a lower rectangle region")
    _box(region.corner, "region")
    truth = float(integrated_hazard(cfg.model, region, cfg.quadrature))

    def weight(x, y):
        sp = _at_risk_limit(cfg, x, y)
        if np.any(sp <= 1e-12):
            raise DomainError("S * P(t in xi) is not bounded below on the region")
        return 1.0 / sp

    # surface the domain problem before burning replicates, on the mesh every rung then reads
    mesh_values(weight, region.corner, cfg.quadrature.initial)

    def gap(pre, n):
        lhs = math.sqrt(n) * (nelson_aalen(pre, region) - truth)
        resid = compensator_residual(pre, cfg.model, region, cfg.quadrature, weight=weight)
        return abs(lhs - resid.value / math.sqrt(n))

    _, rows = _prefix_ladder(cfg, ladder, gap, "median_gap", "martingale jump-sum representation")
    return _report("iid_repr", cfg, rows, start, ladder=ladder,
                   region=[list(map(float, region.corner))], truth=truth)


# ---------------------------------------------------------------------------
# size / power tables
# ---------------------------------------------------------------------------

def _scenario_reject(cfg, s_idx, scen, r):
    """One replicate of one scenario; returns the test's reject flag."""
    spec = _spec(cfg, (s_idx, r), replicates=scen.get("B", 200), alpha=scen.get("alpha", 0.05),
                 grid_size=scen.get("grid_size", cfg.grid_size),
                 sided=scen.get("sided", "one-sided"))
    keys, call = TESTS[scen["test"]]
    n = scen.get("n", cfg.n)
    censor = scen.get("censor_model", cfg.censor_model)
    samples = _draw(cfg, (s_idx, r), *[(scen.get(key, cfg.model), censor, size)
                                       for key, size in zip(keys, (n, scen.get("m", n)))])
    return call(samples, spec, scen).reject


def size_power_study(cfg, scenarios):
    """Rejection-rate table, one row per scenario, with binomial SEs.

    A scenario may carry 'band': (lo, hi) for an absolute rate check, or
    'exceeds': (other scenario name, margin) for a power-vs-size check.
    """
    for s_idx, scen in enumerate(scenarios):
        if scen["test"] not in TESTS:
            raise ConfigError(f"unknown test {scen['test']!r}")
        for key in ("n", "m"):
            if scen.get(key, 1) < 1:
                raise ConfigError(f"scenarios[{s_idx}].{key} must be at least 1, got {scen[key]!r}")
        if "exceeds" in scen and scen["exceeds"][0] not in [s["name"] for s in scenarios]:
            raise ConfigError(f"scenarios[{s_idx}].exceeds names no scenario: {scen['exceeds'][0]!r}")
        check_bootstrap(scen, f"scenarios[{s_idx}].")
        _check_tolerance(f"scenarios[{s_idx}].band", scen.get("band", (0.0, 1.0)))
        if refused := option_error(scen["test"], scen.get("sided", "one-sided"), scen.get("region"),
                                   scen.get("tau")):
            raise ConfigError(f"scenarios[{s_idx}]: {refused}")
    start = time.perf_counter()
    flags = [run_indexed(lambda r: _scenario_reject(cfg, s_idx, scen, r), cfg.replicates)
             for s_idx, scen in enumerate(scenarios)]
    rates = {scen["name"]: float(np.mean(f)) for scen, f in zip(scenarios, flags)}
    rows = [_rate_row(cfg, f"rate:{scen['name']}", f, scen, rates)
            for scen, f in zip(scenarios, flags)]
    return _report("size_power", cfg, rows, start, scenarios=[s["name"] for s in scenarios])


# ---------------------------------------------------------------------------
# confidence-band coverage
# ---------------------------------------------------------------------------

_TRUTH_MESH, _TRUTH_ROWS = 1024, 64


def _truth_difference(model):
    """True H - H1*H2 at a grid's nodes, as a function of the grid (exact zero when theta is 0)."""
    mids = midpoints(1.0, _TRUTH_MESH)
    if model.theta != 0.0:
        # the hazard mesh's cumulative sums, built once by row blocks: a block's first row carries
        # the column sums so far, so each column sums in the order of one whole-mesh cumsum
        cum, cols = np.zeros((_TRUTH_MESH + 1, _TRUTH_MESH + 1)), np.zeros(_TRUTH_MESH)
        for lo in range(0, _TRUTH_MESH, _TRUTH_ROWS):
            h = model.hazard(mids[lo:lo + _TRUTH_ROWS, None], mids)
            block = h / (_TRUTH_MESH * _TRUTH_MESH)
            block[0] += cols
            cols = (block := block.cumsum(axis=0))[-1]
            cum[1 + lo:1 + lo + _TRUTH_ROWS, 1:] = block.cumsum(axis=1)

    def at(grid):
        lam1 = -np.log1p(-np.asarray(model.marginal_x.cdf(grid.xs), dtype=float))
        lam2 = -np.log1p(-np.asarray(model.marginal_y.cdf(grid.ys), dtype=float))
        if model.theta == 0.0:
            return np.zeros((len(grid.xs), len(grid.ys)))
        ix, iy = np.searchsorted(mids, grid.xs, side="right"), np.searchsorted(mids, grid.ys, side="right")
        return cum[np.ix_(ix, iy)] - np.outer(lam1, lam2)

    return at


def coverage_study(cfg, alpha=0.05, b=200, band=(0.88, 0.99)):
    """Fraction of replicates whose bootstrap band covers the true difference.

    The band for H - H1*H2 is the estimate plus/minus c_alpha/sqrt(n)
    uniformly over the grid, with c_alpha the critical value of
    independence_test on the replicate's sample; one replicate is covered
    when the true surface stays inside, which is exactly
    sup sqrt(n)|Dhat - truth| <= c_alpha.
    """
    check_bootstrap({"B": b, "alpha": alpha})
    _check_tolerance("band", band)
    start = time.perf_counter()
    truth = _truth_difference(cfg.model)

    def one(r):
        (sample,) = _draw(cfg, (r,))
        report = independence_test(sample, _spec(cfg, (r,), replicates=b, alpha=alpha,
                                                 grid_size=cfg.grid_size))
        grid = Grid(cfg.grid_size, report.diagnostics["tau"])
        sup = float(np.max(np.abs(_independence_diff(sample, grid) - truth(grid))))
        return sup * math.sqrt(sample.n) <= report.critical_value

    rows = [_rate_row(cfg, "coverage", run_indexed(one, cfg.replicates), {"band": band},
                      source=f"nominal level {1 - alpha}")]
    return _report("coverage", cfg, rows, start, n=cfg.n, B=b, alpha=alpha)


# experiment -> call on (MCConfig, options named by `cli._renamed`); each finds its function when called
EXPERIMENTS = {
    "clt": lambda cfg, opt: verify_clt(cfg, opt["checkpoints"], var_rtol=opt["var_rtol"],
                                       ks_bound=opt["ks_bound"], checks=tuple(opt["checks"])),
    "glivenko": lambda cfg, opt: verify_glivenko(cfg, ladder=opt["ladder"], bound=opt["bound"]),
    "iid_repr": lambda cfg, opt: verify_iid_representation(cfg, _box(opt["region"], "region"), opt["ladder"]),
    "size_power": lambda cfg, opt: size_power_study(cfg, opt["scenarios"]),
    "coverage": lambda cfg, opt: coverage_study(cfg, alpha=opt["alpha"], b=opt["B"], band=opt["band"]),
}
