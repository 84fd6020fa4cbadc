import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from bihazard import mc
from bihazard.censoring import CensoringModel, QuantileTable
from bihazard.errors import ConfigError, DomainError
from bihazard.estimators import asymptotic_cov
from bihazard.geometry import Grid, LowerRect, PredicateRegion, lattice
from bihazard.inference import independence_test
from bihazard.mc import (MCConfig, MIN_REPLICATES_FOR_THRESHOLDS, _normal_distance,
                         _truth_difference, coverage_study, size_power_study, verify_clt,
                         verify_glivenko, verify_iid_representation)
from bihazard.models import FgmModel, integrated_hazard
from bihazard.quadrature import QuadratureSpec, midpoints

FULL = CensoringModel("full")


def rect_model(lo=0.5, hi=1.0):
    return CensoringModel("rectangle", {"tau1": QuantileTable.uniform(lo, hi),
                                        "tau2": QuantileTable.uniform(lo, hi)})


def tiny_cfg(**kw):
    base = dict(model=FgmModel(0.0), censor_model=FULL, n=40, replicates=6,
                grid_size=8, seed=3)
    base.update(kw)
    return MCConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError):
        tiny_cfg(replicates=1)
    with pytest.raises(ConfigError):
        tiny_cfg(n=0)
    with pytest.raises(ConfigError):
        tiny_cfg(grid_size=1)
    for bad in ({"replicates": "x"}, {"n": None}, {"grid_size": 2.5}, {"seed": True},
                {"n": 40.0}):
        with pytest.raises(ConfigError):
            tiny_cfg(**bad)


# ---------------------------------------------------------------------------
# CLT experiment
# ---------------------------------------------------------------------------

def test_verify_clt_small_run_reports_no_verdict():
    rep = verify_clt(tiny_cfg(), [(0.5, 0.5)])
    assert rep.experiment == "clt"
    assert len(rep.rows) == 3
    assert all(r["passed"] is None for r in rep.rows)
    assert rep.passed is None
    assert rep.meta["checkpoints"] == [[0.5, 0.5]]
    assert rep.runtime > 0
    names = [r["name"] for r in rep.rows]
    assert names == ["mean@(0.5,0.5)", "variance@(0.5,0.5)", "normality@(0.5,0.5)"]


def test_verify_clt_checks_subset():
    rep = verify_clt(tiny_cfg(), [(0.4, 0.4), (0.6, 0.3)], checks=("mean",))
    assert [r["name"] for r in rep.rows] == ["mean@(0.4,0.4)", "mean@(0.6,0.3)"]
    for r in rep.rows:
        assert r["reference"] == 0.0
        assert r["se"] > 0
    # a misspelt check is refused instead of dropped from the verdict
    with pytest.raises(ConfigError, match="unknown check 'varaince'"):
        verify_clt(tiny_cfg(), [(0.4, 0.4)], checks=("mean", "varaince"))


def test_verify_clt_variance_reference_is_limit_covariance():
    cfg = tiny_cfg()
    rep = verify_clt(cfg, [(0.5, 0.5)], checks=("variance",))
    # full-space censoring reduces to the uncensored limit covariance
    want = asymptotic_cov(cfg.model, None, LowerRect((0.5, 0.5)),
                          LowerRect((0.5, 0.5)), cfg.quadrature).value
    assert rep.rows[0]["reference"] == pytest.approx(want, rel=1e-12)


def test_normal_distance_matches_scipy_kstest():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(5)
    for n in (1, 2, 7, 400):
        for _ in range(20):
            z = rng.standard_normal(n) * rng.uniform(0.5, 2.0) + rng.uniform(-0.5, 0.5)
            want = stats.kstest(z, "norm").statistic
            assert _normal_distance(z) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_min_replicate_guard_constant():
    assert MIN_REPLICATES_FOR_THRESHOLDS == 50


# ---------------------------------------------------------------------------
# truth surface for the independence difference
# ---------------------------------------------------------------------------

def test_truth_difference_independent_case_is_exactly_zero():
    grid = Grid(6, (0.9, 0.9))
    diff = _truth_difference(FgmModel(0.0))(grid)
    assert diff.shape == (6, 6)
    assert np.all(diff == 0.0)


def test_truth_difference_matches_quadrature():
    model = FgmModel(0.9)
    grid = Grid(4, (0.8, 0.8))
    diff = _truth_difference(model)(grid)
    spec = QuadratureSpec(rtol=1e-7)
    for i, x in enumerate(grid.xs):
        for j, y in enumerate(grid.ys):
            if x == 0.0 or y == 0.0:
                assert diff[i, j] == 0.0
                continue
            h = float(integrated_hazard(model, LowerRect((x, y)), spec))
            prod = np.log1p(-x) * np.log1p(-y)     # uniform marginals
            assert diff[i, j] == pytest.approx(h - prod, abs=3e-3)


@pytest.mark.parametrize("theta", [0.6, -0.7, 0.95])
def test_truth_difference_by_row_blocks_equals_the_whole_mesh(theta):
    model = FgmModel(theta)
    tracemalloc.start()
    try:
        truth = _truth_difference(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2 ** 20
    # node j / 1024 reads row and column j of the cumulative table: all but the last of each
    grid = Grid(1024, (1023 / 1024, 1023 / 1024))
    mids = midpoints(1.0, 1024)
    mesh = lattice(mids, mids)
    h = model.hazard(mesh[..., 0], mesh[..., 1])
    cum = np.pad((h / (1024 * 1024)).cumsum(axis=0).cumsum(axis=1), ((1, 0), (1, 0)))
    lam1 = -np.log1p(-np.asarray(model.marginal_x.cdf(grid.xs), dtype=float))
    lam2 = -np.log1p(-np.asarray(model.marginal_y.cdf(grid.ys), dtype=float))
    assert np.array_equal(truth(grid), cum[:-1, :-1] - np.outer(lam1, lam2))


# ---------------------------------------------------------------------------
# Glivenko ladder
# ---------------------------------------------------------------------------

def test_verify_glivenko_structure():
    rep = verify_glivenko(tiny_cfg(censor_model=rect_model()), ladder=(30, 60))
    assert rep.experiment == "glivenko"
    names = [r["name"] for r in rep.rows]
    assert names == ["median_sup@n=30", "median_sup@n=60", "ladder_monotone",
                     "final_median"]
    assert rep.rows[0]["tolerance"] == "informational"
    assert rep.rows[0]["value"] >= 0.0
    assert rep.passed is None          # 6 replicates give no verdict
    assert rep.meta["ladder"] == [30, 60]


def test_verify_glivenko_ladder_sorted():
    rep = verify_glivenko(tiny_cfg(), ladder=(60, 30))
    assert rep.meta["ladder"] == [30, 60]


# ---------------------------------------------------------------------------
# representation ladder
# ---------------------------------------------------------------------------

def test_verify_iid_representation_structure():
    rep = verify_iid_representation(tiny_cfg(), LowerRect((0.6, 0.6)),
                                    ladder=(30, 60))
    assert rep.experiment == "iid_repr"
    names = [r["name"] for r in rep.rows]
    assert names == ["median_gap@n=30", "median_gap@n=60", "ladder_monotone"]
    assert rep.meta["truth"] == pytest.approx(np.log(0.4) ** 2, rel=1e-5)


def test_verify_iid_representation_region_type():
    with pytest.raises(ConfigError):
        verify_iid_representation(tiny_cfg(), PredicateRegion(lambda p: p[..., 0] < 1))


def test_verify_iid_representation_refuses_a_zero_side_region():
    with pytest.raises(ConfigError, match=r"^region must lie in \(0, 1\]\^2, got \[0.0, 0.5\]"):
        verify_iid_representation(tiny_cfg(), LowerRect((0.0, 0.5)))


def test_verify_iid_representation_domain_preflight():
    cm = CensoringModel("rectangle", {"tau1": QuantileTable.fixed(0.9),
                                      "tau2": QuantileTable.fixed(0.9)})
    with pytest.raises(DomainError):
        verify_iid_representation(tiny_cfg(censor_model=cm), LowerRect((0.95, 0.95)))


# ---------------------------------------------------------------------------
# size / power tables
# ---------------------------------------------------------------------------

def _tiny_scenarios():
    return [
        {"name": "size", "test": "independence", "n": 25, "B": 19, "alpha": 0.1,
         "grid_size": 6, "band": (0.0, 0.5)},
        {"name": "power", "test": "independence", "model": FgmModel(0.9), "n": 25,
         "B": 19, "alpha": 0.1, "grid_size": 6, "exceeds": ("size", 0.0)},
        {"name": "note", "test": "hazard-order", "n": 15, "m": 12, "B": 9,
         "grid_size": 4},
    ]


def test_size_power_structure_and_determinism():
    cfg = tiny_cfg(n=25)
    rep = size_power_study(cfg, _tiny_scenarios())
    assert rep.experiment == "size_power"
    assert [r["name"] for r in rep.rows] == ["rate:size", "rate:power", "rate:note"]
    for r in rep.rows:
        assert 0.0 <= r["value"] <= 1.0
        assert r["se"] > 0.0
    assert rep.rows[2]["tolerance"] == "informational"
    assert rep.rows[2]["passed"] is None
    assert rep.passed is None          # below the replicate threshold
    assert rep.meta["scenarios"] == ["size", "power", "note"]
    again = size_power_study(cfg, _tiny_scenarios())
    assert again.rows == rep.rows


def test_size_power_scenario_options():
    # fixed-region hazard-order and copula-order scenarios run end to end
    scen = [
        {"name": "ho", "test": "hazard-order", "n": 20, "B": 9,
         "region": LowerRect((0.7, 0.7))},
        {"name": "fgm", "test": "fgm-order", "model_1": FgmModel(-0.5),
         "model_2": FgmModel(0.5), "n": 20, "B": 9, "tau": (0.7, 0.7)},
    ]
    rep = size_power_study(tiny_cfg(n=20, replicates=3), scen)
    assert len(rep.rows) == 2
    with pytest.raises(ConfigError):
        size_power_study(tiny_cfg(replicates=3),
                         [{"name": "x", "test": "mystery"}])


def test_independence_scenario_passes_tau():
    cfg = tiny_cfg(n=25, replicates=8, grid_size=6)
    scen = {"name": "t", "test": "independence", "B": 19, "alpha": 0.5, "tau": (0.4, 0.4)}

    def flags(tau):
        return [independence_test(*mc._draw(cfg, (0, r)),
                                  mc._spec(cfg, (0, r), replicates=19, alpha=0.5, grid_size=6),
                                  tau=tau).reject for r in range(cfg.replicates)]

    want = flags((0.4, 0.4))
    assert want != flags(None)          # the window changes some verdicts
    assert size_power_study(cfg, [scen]).rows[0]["value"] == np.mean(want)


def test_report_serialization():
    rep = verify_glivenko(tiny_cfg(), ladder=(30, 60))
    j = rep.to_json()
    assert set(j) == {"experiment", "rows", "passed", "runtime", "meta"}
    csv = rep.csv_rows()
    assert csv[0] == ["name", "value", "se", "reference", "referenceSource",
                      "tolerance", "passed"]
    assert len(csv) == len(rep.rows) + 1


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------

def test_coverage_study_runs():
    rep = coverage_study(tiny_cfg(replicates=4, n=30), alpha=0.1, b=19)
    assert rep.experiment == "coverage"
    assert len(rep.rows) == 1
    row = rep.rows[0]
    assert row["name"] == "coverage"
    assert 0.0 <= row["value"] <= 1.0
    assert row["passed"] is None
    assert rep.passed is None


# ---------------------------------------------------------------------------
# pinned outputs: every experiment's report, bit for bit
# ---------------------------------------------------------------------------

def _band_model():
    return CensoringModel("band_complement", {"k1": QuantileTable.uniform(0.1, 0.5),
                                              "k2": QuantileTable.uniform(0.3, 0.9),
                                              "c": 0.2}, mc_prob_samples=2000)


def _pinned_reports():
    scenarios = _tiny_scenarios() + [
        # levels near one half make the rates move with any change in the draws
        {"name": "ho", "test": "hazard-order", "model_f": FgmModel(0.5), "n": 20, "m": 15,
         "B": 9, "alpha": 0.5, "region": LowerRect((0.7, 0.7)), "censor_model": rect_model(0.6)},
        {"name": "fgm", "test": "fgm-order", "model_1": FgmModel(-0.5), "model_2": FgmModel(0.5),
         "n": 20, "m": 15, "B": 9, "alpha": 0.5, "tau": (0.7, 0.7)},
    ]
    return {
        "clt": verify_clt(tiny_cfg(censor_model=rect_model(), replicates=50),
                          [(0.4, 0.4), (0.6, 0.3)]),
        "glivenko": verify_glivenko(tiny_cfg(censor_model=_band_model(), replicates=50),
                                    ladder=(30, 60)),
        "iid_repr": verify_iid_representation(
            tiny_cfg(model=FgmModel(0.4), censor_model=rect_model(), replicates=50),
            LowerRect((0.6, 0.6)), ladder=(30, 60)),
        "size_power": size_power_study(tiny_cfg(n=25, replicates=50), scenarios),
        "coverage": coverage_study(tiny_cfg(model=FgmModel(0.6), replicates=50, n=30),
                                   alpha=0.1, b=19),
    }


def _report_digest(report):
    body = report.to_json()
    body.pop("runtime")
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# Frozen from the reports before the replicate engine was shared; the limit variance goes
# through a matrix product, so another BLAS or NumPy build may need them taken afresh.
PINNED = {
    "clt": "f6667ccba67e81bbdb5d0f5c8636fcbe6d067415528fae1279ed1bb83674e334",
    "glivenko": "6c3ea8cf42dfdac2b125a322fecad6769309b1ed782cab1d4d0d129d54948854",
    "iid_repr": "d750f6b3e5e4c4feada316b23dd8c34eff69d8cdd1268f98f84bd9677d7e50e3",
    "size_power": "6d31c78344a4d5fd58e1df94f7443176e3945aebd942157bf606c040ebdac491",
    "coverage": "dce1d1cf0a3cb93856b8f99a9f7a8b4a26eb719f18dbd9cf0378dd5877c6407d",
}


def test_reports_are_pinned():
    # any moved float, row, verdict or meta entry changes a digest
    assert {name: _report_digest(rep) for name, rep in _pinned_reports().items()} == PINNED
