import math

import numpy as np
import pytest

from bihazard import inference, mc
from bihazard.censoring import CensoringModel, FullSpace, GridProduct, QuantileTable
from bihazard.errors import ConfigError, QuantileRangeError
from bihazard.estimators import (CensoredSample, SubjectRecord, at_risk, kaplan_meier, km_quantile,
                                 marginal_nelson_aalen, nelson_aalen, nelson_aalen_surface,
                                 simulate_sample)
from bihazard.geometry import Grid, LowerRect, PredicateRegion
from bihazard.inference import (BootstrapSpec, _copula_corner_surface, _finish,
                                _independence_diff, _OrderWindow, _resolve_tau,
                                bootstrap_resample, fgm_order_test, hazard_order_test,
                                independence_test)
from bihazard.mc import MCConfig, _truth_difference
from bihazard.models import FgmModel, fgm_order_region
from bihazard.util import BOOTSTRAP, BOOTSTRAP_SECOND, DATA, PROBE, run_indexed, substream

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
    # tau sets the grid's window only, so it is refused with a region
    with pytest.raises(ConfigError, match="a fixed region takes no tau"):
        hazard_order_test(sf, sg, spec, region=full, tau=(0.5, 0.5))


def test_hazard_order_fixed_region_applies_sided():
    rng = np.random.default_rng(1)
    f, g = (simulate_sample(FgmModel(theta), CensoringModel("full"), 80, rng) for theta in (0.0, 0.9))
    region = LowerRect((0.6, 0.6))
    one, two = (hazard_order_test(f, g, BootstrapSpec(replicates=99, sided=sided), region=region)
                for sided in ("one-sided", "two-sided"))
    assert one.statistic < 0.0 and two.statistic == abs(one.statistic)
    assert two.diagnostics["sided"] == "two-sided"
    # the same draws, taken absolute
    assert np.array_equal(two.replicate_statistics, np.abs(one.replicate_statistics))
    assert np.all(two.replicate_statistics >= 0.0)
    swapped = hazard_order_test(g, f, BootstrapSpec(replicates=99, sided="two-sided"), region=region)
    assert swapped.statistic == pytest.approx(two.statistic, rel=1e-12)


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


def test_fgm_order_refuses_a_two_sided_spec():
    # one-sided by construction: a two-sided spec used to return the one-sided report unchanged
    s1, s2 = sim(0.5, 40, 61), sim(-0.5, 40, 63)
    for marginals_equal in (True, False):
        with pytest.raises(ConfigError, match="fgm-order is one-sided by construction"):
            fgm_order_test(s1, s2, (0.8, 0.8), BootstrapSpec(replicates=99, sided="two-sided"),
                           marginals_equal)


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
        SubjectRecord(censor=LowerRect((0.45, 1.0)), status="censored_opaque",
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
        SubjectRecord(censor=LowerRect((0.3, 1.0)), status="censored_opaque",
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


# ---------------------------------------------------------------------------
# the bootstrap engine against the per-replicate loops it replaced
# ---------------------------------------------------------------------------

def _loop_one_sample(stat_fn, sample, seed, b):
    return np.array([stat_fn(bootstrap_resample(sample, substream(seed, BOOTSTRAP, r)))
                     for r in range(b)], dtype=float)


def _loop_pooled(stat_fn, f, g, seed, b):
    pooled = CensoredSample([*f.records, *g.records])
    total = f.n + g.n
    out = []
    for r in range(b):
        idx = substream(seed, BOOTSTRAP, r).integers(0, total, size=total)
        out.append(stat_fn(pooled.take(idx[:f.n]), pooled.take(idx[f.n:])))
    return np.array(out, dtype=float)


def _loop_separate(stat_fn, f, g, seed, b):
    return np.array([stat_fn(bootstrap_resample(f, substream(seed, BOOTSTRAP, r)),
                             bootstrap_resample(g, substream(seed, BOOTSTRAP_SECOND, r)))
                     for r in range(b)], dtype=float)


def _assert_close_to_loop(got, want, scale):
    # the engine sums w_i / Z once where the loop adds 1 / Z per copy, in
    # resample order: equal within 1e-12 relative (scale as in
    # bench/checks.close), with the same empty (-inf) replicates
    assert got.shape == want.shape
    assert np.array_equal(np.isneginf(got), np.isneginf(want))
    fin = np.isfinite(want)
    assert np.all(np.isfinite(got) == fin)
    tol = 1e-12 * np.maximum(np.maximum(np.abs(got[fin]), np.abs(want[fin])), scale)
    assert np.all(np.abs(got[fin] - want[fin]) <= tol)


def _engine_against_loops(model):
    # n and m put the pooled event count above the 64-point switch to the Fenwick blocks
    f, g = sim(0.4, 90, 35, model), sim(0.0, 75, 43, model)
    assert int(f.event_mask.sum() + g.event_mask.sum()) > 64
    b, seed = 15, 9
    spec = BootstrapSpec(replicates=b, seed=seed, grid_size=8)
    scale = math.sqrt(f.n * g.n / (f.n + g.n))

    # independence: one-sample resampling, centered at the base difference
    rep = independence_test(f, spec)
    grid = Grid(8, rep.diagnostics["tau"])
    base = _independence_diff(f, grid)
    want = _loop_one_sample(
        lambda rs: math.sqrt(f.n) * float(np.max(np.abs(_independence_diff(rs, grid) - base))),
        f, seed, b)
    _assert_close_to_loop(rep.replicate_statistics, want, math.sqrt(f.n))
    other = independence_test(f, BootstrapSpec(replicates=b, seed=seed + 1, grid_size=8))
    assert not np.allclose(other.replicate_statistics, want)

    # hazard order over the node grid and over a fixed region: pooled resampling
    rep = hazard_order_test(f, g, spec)
    grid = Grid(8, rep.diagnostics["tau"])
    want = _loop_pooled(lambda a, c: scale * float(np.max(
        nelson_aalen_surface(a, grid).values - nelson_aalen_surface(c, grid).values)),
        f, g, seed, b)
    _assert_close_to_loop(rep.replicate_statistics, want, scale)
    region = LowerRect((0.7, 0.6))
    rep = hazard_order_test(f, g, spec, region=region)
    want = _loop_pooled(lambda a, c: scale * (nelson_aalen(a, region) - nelson_aalen(c, region)),
                        f, g, seed, b)
    _assert_close_to_loop(rep.replicate_statistics, want, scale)

    # copula order with equal marginals: pooled resampling over the order window
    tau = (0.8, 0.8)
    rep = fgm_order_test(f, g, tau, spec, True)
    window = _OrderWindow(tau)
    want = _loop_pooled(lambda a, c: scale * (nelson_aalen(c, window) - nelson_aalen(a, window)),
                        f, g, seed, b)
    _assert_close_to_loop(rep.replicate_statistics, want, scale)

    # copula order with estimated marginals: separate resampling, second stream
    rep = fgm_order_test(f, g, tau, spec, False)
    ps, qs = np.linspace(0.0, 0.8, 9)[1:], np.linspace(0.0, 0.8, 9)[1:]
    v1, x1, y1 = _copula_corner_surface(f, ps, qs)
    v2, x2, y2 = _copula_corner_surface(g, ps, qs)
    usable = fgm_order_region(ps[:, None], qs[None, :]) & (x1 & x2)[:, None] & (y1 & y2)[None, :]

    def km_stat(r1, r2):
        w1, a1, b1 = _copula_corner_surface(r1, ps, qs)
        w2, a2, b2 = _copula_corner_surface(r2, ps, qs)
        ok = usable & (a1 & a2)[:, None] & (b1 & b2)[None, :]
        return scale * float(np.max(((w2 - v2) - (w1 - v1))[ok])) if ok.any() else -math.inf

    want = _loop_separate(km_stat, f, g, seed, b)
    _assert_close_to_loop(rep.replicate_statistics, want, scale)
    assert rep.diagnostics["emptyReplicates"] == int(np.count_nonzero(np.isneginf(want)))
    return f, g, spec, tau


def test_bootstrap_engine_matches_replicate_loop_oracle_on_grid_product():
    _engine_against_loops(CensoringModel("grid_product", {
        "region": GridProduct(((0.0, 0.3), (0.4, 1.0)), ((0.0, 0.6), (0.7, 1.0)))}))


def test_bootstrap_engine_matches_replicate_loop_oracle(monkeypatch):
    f, g, spec, tau = _engine_against_loops(rect_model())
    b, seed = spec.replicates, spec.seed
    tests = (lambda sp: independence_test(f, sp), lambda sp: hazard_order_test(f, g, sp),
             lambda sp: fgm_order_test(f, g, tau, sp, True),
             lambda sp: fgm_order_test(f, g, tau, sp, False))

    # rows are independent, so the chunk size changes no replicate
    whole = [run(spec).replicate_statistics for run in tests]
    # a sample keeps its layouts, and every later bootstrap on it reuses them
    kept = [dict(s._layouts) for s in (f, g)]
    assert all({"events", ("marginal", 0), ("marginal", 1)} <= held.keys() for held in kept)
    monkeypatch.setattr(inference, "_CHUNK_BYTES", 1)
    assert all(np.array_equal(run(spec).replicate_statistics, w) for run, w in zip(tests, whole))
    assert all(s._layouts[k] is layout for s, held in zip((f, g), kept) for k, layout in held.items())
    monkeypatch.undo()

    # workers is accepted and ignored
    for run in tests:
        one, many = run(spec), run(BootstrapSpec(replicates=b, seed=seed, grid_size=8, workers=4))
        assert np.array_equal(one.replicate_statistics, many.replicate_statistics)
        assert one.to_json() == many.to_json()


def test_chunk_budget_changes_no_replicate_above_the_fenwick_switch(monkeypatch):
    # each sample alone has more than 64 events, so every count runs the Fenwick levels
    f = sim(0.4, 150, 71, rect_model())
    g = simulate_sample(FgmModel(0.0), rect_model(), 140, np.random.default_rng(72), form="observable")
    assert min(int(f.event_mask.sum()), int(g.event_mask.sum())) > 64
    spec, tau = BootstrapSpec(replicates=45, seed=5, grid_size=32), (0.8, 0.8)
    # at the default budget a pooled chunk holds several rows and the last chunk is partial
    rows = inference._CHUNK_BYTES // (8 * (2 * (f.n + g.n) + spec.grid_size ** 2))
    assert 1 < rows and spec.replicates % rows
    tests = (lambda: independence_test(f, spec), lambda: hazard_order_test(f, g, spec),
             lambda: fgm_order_test(f, g, tau, spec, True),
             lambda: fgm_order_test(f, g, tau, spec, False))
    default = [run() for run in tests]
    monkeypatch.setattr(inference, "_CHUNK_BYTES", 1)
    for run, want in zip(tests, default):
        got = run()
        assert np.array_equal(got.replicate_statistics, want.replicate_statistics)
        assert got.to_json() == want.to_json()


def test_copula_corner_surface_matches_per_node_quantiles():
    s = sim(0.3, 60, 17, rect_model(0.5, 0.7))
    f, g = (kaplan_meier(marginal_nelson_aalen(s, axis)) for axis in (0, 1))
    # levels equal to attained CDF values, between them, and above the largest one
    ps = np.unique(np.concatenate([f.values[::4], np.linspace(0.02, 0.98, 9)]))
    qs = np.unique(np.concatenate([g.values[1::5], np.linspace(0.03, 0.99, 7)]))
    vals, x_ok, y_ok = _copula_corner_surface(s, ps, qs)
    assert x_ok.tolist() == (ps <= f.max_value).tolist() and not x_ok.all()
    assert y_ok.tolist() == (qs <= g.max_value).tolist() and not y_ok.all()
    for i, p in enumerate(ps[x_ok]):
        for j, q in enumerate(qs[y_ok]):
            want = nelson_aalen(s, LowerRect((km_quantile(f, p), km_quantile(g, q))))
            assert vals[i, j] == pytest.approx(want, rel=1e-12, abs=0)
    # weight rows are binned together, and each row is what it is alone
    w = np.random.default_rng(18).integers(0, 3, (5, s.n))
    rows = _copula_corner_surface(s, ps, qs, w)
    for r in range(len(w)):
        alone = _copula_corner_surface(s, ps, qs, w[r:r + 1])
        assert all(np.array_equal(a[r], b[0]) for a, b in zip(rows, alone))


def test_coverage_flags_match_replicate_loop_oracle(monkeypatch):
    # a wide level so that both covered and missed replicates occur
    cfg = MCConfig(model=FgmModel(0.2), censor_model=rect_model(), n=40, replicates=8,
                   grid_size=8, seed=4)
    alpha, b = 0.5, 19

    def flag(r):
        sample = simulate_sample(cfg.model, cfg.censor_model, cfg.n,
                                 substream(cfg.seed, DATA, r), form="latent")
        t, _ = _resolve_tau([sample], None)
        grid = Grid(cfg.grid_size, t)
        base = _independence_diff(sample, grid)
        boot_seed = int(substream(cfg.seed, PROBE, r).integers(2 ** 62))
        root_n = math.sqrt(sample.n)
        reps = _loop_one_sample(
            lambda rs: root_n * float(np.max(np.abs(_independence_diff(rs, grid) - base))),
            sample, boot_seed, b)
        crit = _finish("band", 0.0, reps, BootstrapSpec(replicates=b, alpha=alpha), {})
        truth = _truth_difference(cfg.model)(grid)
        return float(np.max(np.abs(base - truth))) * root_n <= crit.critical_value

    seen = []

    def recording(fn, count):
        out = run_indexed(fn, count)
        seen.append(out)
        return out

    monkeypatch.setattr(mc, "run_indexed", recording)
    rep = mc.coverage_study(cfg, alpha=alpha, b=b)
    assert seen == [[flag(r) for r in range(cfg.replicates)]]
    assert any(seen[0]) and not all(seen[0])
    assert rep.rows[0]["value"] == float(np.mean(seen[0]))
