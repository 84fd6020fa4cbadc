import math

import numpy as np
import pytest

from bihazard.censoring import CensoringModel, FullSpace, QuantileTable, Rectangle
from bihazard.errors import ConfigError, QuantileRangeError
from bihazard.estimators import (CensoredSample, SubjectRecord, at_risk,
                                 simulate_sample)
from bihazard.geometry import LowerRect, PredicateRegion
from bihazard.inference import (BootstrapSpec, _finish, bootstrap_resample,
                                fgm_order_test, hazard_order_test,
                                independence_test)
from bihazard.models import FgmModel

FULL = FullSpace()


def obs(point, censor=FULL):
    return SubjectRecord(censor=censor, status="observed", point=point)


def sim(theta, n, seed, censor=None):
    cm = censor if censor is not None else CensoringModel("full")
    return simulate_sample(FgmModel(theta), cm, n, np.random.default_rng(seed))


def rect_model(lo=0.5, hi=1.0):
    return CensoringModel("rectangle", {"tau1": QuantileTable.uniform(lo, hi),
                                        "tau2": QuantileTable.uniform(lo, hi)})


# ---------------------------------------------------------------------------
# calibration rule
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ConfigError):
        BootstrapSpec(replicates=0)
    with pytest.raises(ConfigError):
        BootstrapSpec(alpha=0.0)
    with pytest.raises(ConfigError):
        BootstrapSpec(alpha=1.2)
    with pytest.raises(ConfigError):
        BootstrapSpec(grid_size=1)
    with pytest.raises(ConfigError):
        BootstrapSpec(sided="both")
    with pytest.raises(ConfigError):
        BootstrapSpec(workers=0)
    for bad in ({"replicates": "x"}, {"replicates": True}, {"alpha": False},
                {"seed": 1.5}, {"grid_size": None}, {"workers": "2"}):
        with pytest.raises(ConfigError):
            BootstrapSpec(**bad)


def test_finish_frozen_values():
    spec = BootstrapSpec(replicates=99, alpha=0.05, seed=0)
    reps = np.arange(1.0, 100.0)     # 1..99, so k = 5 and the cutoff is 95
    rep = _finish("t", 96.0, reps, spec, {})
    assert rep.critical_value == 95.0
    assert rep.p_value == pytest.approx(0.05)
    assert rep.reject
    rep2 = _finish("t", 95.0, reps, spec, {})
    assert not rep2.reject
    assert rep2.p_value == pytest.approx(0.06)


def test_finish_too_few_replicates_never_rejects():
    spec = BootstrapSpec(replicates=9, alpha=0.05, seed=0)
    reps = np.zeros(9)
    rep = _finish("t", 1e9, reps, spec, {})
    assert rep.critical_value == math.inf
    assert not rep.reject
    assert rep.p_value >= 0.1


def test_finish_alpha_one_always_rejects():
    # diagnostic mode: the critical value degenerates and p <= 1 = alpha
    spec = BootstrapSpec(replicates=9, alpha=1.0, seed=0)
    rep = _finish("t", 0.0, np.ones(9), spec, {})
    assert rep.critical_value == -math.inf
    assert rep.reject
    assert rep.reject == (rep.p_value <= 1.0)


def test_reject_iff_p_below_alpha():
    # the three conventions must stay consistent under heavy ties
    rng = np.random.default_rng(11)
    for _ in range(300):
        b = int(rng.integers(1, 60))
        reps = rng.integers(0, 6, size=b) / 4.0
        stat = float(rng.integers(0, 6)) / 4.0
        alpha = float(rng.choice([0.01, 0.05, 0.1, 0.25, 0.5]))
        spec = BootstrapSpec(replicates=b, alpha=alpha, seed=0)
        rep = _finish("t", stat, reps, spec, {})
        assert rep.reject == (rep.p_value <= alpha)


def test_bootstrap_resample_reproducible():
    s = sim(0.3, 50, 21)
    a = bootstrap_resample(s, np.random.default_rng(9))
    b = bootstrap_resample(s, np.random.default_rng(9))
    c = bootstrap_resample(s, np.random.default_rng(10))
    assert np.array_equal(a.carrier, b.carrier)
    assert not np.array_equal(a.carrier, c.carrier)
    assert a.n == s.n


# ---------------------------------------------------------------------------
# independence test
# ---------------------------------------------------------------------------

def test_independence_single_subject_statistic_zero():
    s = CensoredSample([obs((0.5, 0.6))])
    rep = independence_test(s, BootstrapSpec(replicates=19, seed=1, grid_size=8))
    assert rep.statistic == 0.0
    assert not rep.reject
    assert rep.p_value == 1.0


def test_independence_report_shape():
    s = sim(0.0, 60, 31, rect_model())
    spec = BootstrapSpec(replicates=23, alpha=0.1, seed=4, grid_size=12)
    rep = independence_test(s, spec)
    assert rep.test == "independence"
    assert len(rep.replicate_statistics) == 23
    assert np.all(rep.replicate_statistics >= 0.0)
    assert rep.diagnostics["tauSource"] == "auto"
    assert rep.diagnostics["n"] == 60
    j = rep.to_json()
    assert set(j) == {"test", "statistic", "criticalValue", "pValue", "reject",
                      "alpha", "replicates", "diagnostics"}
    assert isinstance(j["reject"], bool)


def test_independence_given_tau():
    s = sim(0.5, 40, 33)
    spec = BootstrapSpec(replicates=9, seed=2, grid_size=6)
    rep = independence_test(s, spec, tau=(0.5, 0.5))
    assert rep.diagnostics["tau"] == [0.5, 0.5]
    assert rep.diagnostics["tauSource"] == "given"
    low = CensoredSample([obs((0.1, 0.1)), obs((0.15, 0.12))])
    with pytest.raises(ConfigError):
        independence_test(low, spec, tau=(0.9, 0.9))
    with pytest.raises(ConfigError):
        independence_test(s, spec, tau=(0.0, 0.5))


def test_independence_auto_tau_steps_down():
    # anti-diagonal cloud: nobody dominates the componentwise 0.8-quantile
    pts = [(0.05, 0.95), (0.95, 0.05), (0.1, 0.9), (0.9, 0.1),
           (0.15, 0.85), (0.85, 0.15)]
    s = CensoredSample([obs(p) for p in pts])
    rep = independence_test(s, BootstrapSpec(replicates=9, seed=3, grid_size=4))
    assert rep.diagnostics["tauSource"] == "auto"
    assert rep.diagnostics["tauFallbackSteps"] >= 1
    assert at_risk(s, tuple(rep.diagnostics["tau"])) >= 1


def test_independence_deterministic_and_worker_invariant():
    s = sim(0.4, 70, 35, rect_model())
    r1 = independence_test(s, BootstrapSpec(replicates=17, seed=6, grid_size=8, workers=1))
    r2 = independence_test(s, BootstrapSpec(replicates=17, seed=6, grid_size=8, workers=4))
    assert np.array_equal(r1.replicate_statistics, r2.replicate_statistics)
    assert r1.to_json() == r2.to_json()
    r3 = independence_test(s, BootstrapSpec(replicates=17, seed=7, grid_size=8))
    assert not np.array_equal(r1.replicate_statistics, r3.replicate_statistics)


# ---------------------------------------------------------------------------
# hazard order test
# ---------------------------------------------------------------------------

def test_hazard_order_fixed_region_statistic():
    sf = CensoredSample([obs((0.2, 0.2)), obs((0.4, 0.4))])
    sg = CensoredSample([obs((0.5, 0.5))])
    spec = BootstrapSpec(replicates=19, seed=5)
    want = math.sqrt(2.0 / 3.0) * 0.5      # Hhat_F = 1.5, Hhat_G = 1.0
    rep = hazard_order_test(sf, sg, spec, region=LowerRect((1.0, 1.0)))
    assert rep.statistic == pytest.approx(want, rel=1e-12)
    assert rep.test == "hazard-order"
    assert rep.diagnostics["regionMode"] == "fixed"
    assert rep.diagnostics["n"] == 2 and rep.diagnostics["m"] == 1
    # an equivalent predicate region gives the same statistic
    full = PredicateRegion(lambda p: np.ones(p.shape[:-1], dtype=bool))
    rep2 = hazard_order_test(sf, sg, spec, region=full)
    assert rep2.statistic == pytest.approx(rep.statistic, rel=1e-12)


def test_hazard_order_grid_sidedness():
    sf = CensoredSample([obs((0.5, 0.5))])
    sg = CensoredSample([obs((0.2, 0.2)), obs((0.4, 0.4)), obs((0.6, 0.6))])
    scale = math.sqrt(3.0) / 2.0
    one = hazard_order_test(sf, sg, BootstrapSpec(replicates=9, seed=8, grid_size=2,
                                                  sided="one-sided"), tau=(0.45, 0.45))
    # F sits below G everywhere, so the signed sup is pinned at the origin node
    assert one.statistic == 0.0
    two = hazard_order_test(sf, sg, BootstrapSpec(replicates=9, seed=8, grid_size=2,
                                                  sided="two-sided"), tau=(0.45, 0.45))
    assert two.statistic == pytest.approx(scale * (1 / 3 + 1 / 2), rel=1e-12)
    assert two.diagnostics["regionMode"] == "grid"
    assert two.diagnostics["sided"] == "two-sided"


def test_hazard_order_deterministic_and_worker_invariant():
    f = sim(0.0, 45, 41, rect_model())
    g = sim(0.0, 35, 43, rect_model())
    a = hazard_order_test(f, g, BootstrapSpec(replicates=15, seed=9, grid_size=8, workers=1))
    b = hazard_order_test(f, g, BootstrapSpec(replicates=15, seed=9, grid_size=8, workers=3))
    assert np.array_equal(a.replicate_statistics, b.replicate_statistics)
    assert a.to_json() == b.to_json()


def test_hazard_order_pooled_null_is_centered():
    # identical samples: the statistic is 0 and no bootstrap can reject
    s = sim(0.2, 30, 47)
    rep = hazard_order_test(s, s, BootstrapSpec(replicates=39, seed=10, grid_size=6))
    assert rep.statistic == 0.0
    assert not rep.reject


# ---------------------------------------------------------------------------
# copula-parameter order test
# ---------------------------------------------------------------------------

def test_fgm_tau_validation():
    s1, s2 = sim(0.0, 20, 51), sim(0.0, 20, 53)
    spec = BootstrapSpec(replicates=9, seed=11)
    for bad in [(1.0, 0.5), (0.5, 1.0), (0.0, 0.5), (0.5, -0.1)]:
        with pytest.raises(ConfigError):
            fgm_order_test(s1, s2, bad, spec, True)


def test_fgm_marginals_equal_statistic():
    s1 = CensoredSample([obs((0.1, 0.1))])
    s2 = CensoredSample([obs((0.05, 0.05)), obs((0.15, 0.15))])
    spec = BootstrapSpec(replicates=19, seed=12)
    rep = fgm_order_test(s1, s2, (0.5, 0.5), spec, True)
    # all three points fall in the order region; Hhat_2 = 1.5, Hhat_1 = 1.0
    want = math.sqrt(2.0 / 3.0) * 0.5
    assert rep.statistic == pytest.approx(want, rel=1e-12)
    assert rep.diagnostics["marginalsEqual"] is True
    assert rep.test == "fgm-order"


def test_fgm_order_region_window_excludes_outside_points():
    # (0.45, 0.45) lies inside [0, tau] but outside the order region
    s1 = CensoredSample([obs((0.45, 0.45))])
    s2 = CensoredSample([obs((0.44, 0.46))])
    rep = fgm_order_test(s1, s2, (0.5, 0.5), BootstrapSpec(replicates=9, seed=13), True)
    assert rep.statistic == 0.0


def test_fgm_unknown_marginals_runs():
    s1, s2 = sim(-0.5, 60, 55), sim(0.5, 60, 57)
    spec = BootstrapSpec(replicates=25, seed=14, grid_size=8)
    rep = fgm_order_test(s1, s2, (0.8, 0.8), spec, False)
    d = rep.diagnostics
    assert d["marginalsEqual"] is False
    assert d["gridSize"] == 8
    assert d["usableNodes"] >= 1
    assert d["droppedNodes"] >= 0
    assert d["emptyReplicates"] >= 0
    assert len(rep.replicate_statistics) == 25


def test_fgm_unknown_marginals_empty_replicates_counted():
    # one subject carries the only axis-1 event; a resample that misses it
    # has no attainable quantiles and scores -inf
    s1 = CensoredSample([
        obs((0.5, 0.5)),
        SubjectRecord(censor=Rectangle((0.45, 1.0)), status="censored_opaque",
                      minima=(0.45, 0.3), events=(0, 1)),
    ])
    s2 = CensoredSample([obs((0.3, 0.3)), obs((0.6, 0.6))])
    spec = BootstrapSpec(replicates=40, seed=15, grid_size=4)
    rep = fgm_order_test(s1, s2, (0.7, 0.7), spec, False)
    assert rep.diagnostics["emptyReplicates"] >= 1
    assert np.isfinite(rep.statistic)
    assert rep.p_value <= 1.0


def test_fgm_unknown_marginals_unattainable_raises():
    # sample 1 never observes axis 1, so no copula-scale node is usable
    s1 = CensoredSample([
        SubjectRecord(censor=Rectangle((0.3, 1.0)), status="censored_opaque",
                      minima=(0.3, y), events=(0, 1))
        for y in (0.2, 0.4, 0.6)
    ])
    s2 = CensoredSample([obs((0.3, 0.3)), obs((0.6, 0.6))])
    with pytest.raises(QuantileRangeError):
        fgm_order_test(s1, s2, (0.7, 0.7), BootstrapSpec(replicates=9, seed=16), False)


def test_fgm_deterministic_and_worker_invariant():
    s1, s2 = sim(0.0, 40, 61), sim(0.0, 40, 63)
    a = fgm_order_test(s1, s2, (0.8, 0.8),
                       BootstrapSpec(replicates=13, seed=17, grid_size=6, workers=1), False)
    b = fgm_order_test(s1, s2, (0.8, 0.8),
                       BootstrapSpec(replicates=13, seed=17, grid_size=6, workers=4), False)
    assert np.array_equal(a.replicate_statistics, b.replicate_statistics)
    assert a.to_json() == b.to_json()
    c = fgm_order_test(s1, s2, (0.8, 0.8),
                       BootstrapSpec(replicates=13, seed=17, grid_size=6), True)
    d = fgm_order_test(s1, s2, (0.8, 0.8),
                       BootstrapSpec(replicates=13, seed=17, grid_size=6), True)
    assert np.array_equal(c.replicate_statistics, d.replicate_statistics)
