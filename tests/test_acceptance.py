"""End-to-end acceptance suite: fifteen release checks.

Exact checks compare the estimators against independent transcriptions of
their defining sums. Stochastic checks run at the pre-registered seeds in
configs/acceptance.json whose 'registered' blocks record the original
calibration outcomes, which the criteria assert at their recorded
precision; seeds were fixed before those runs and never rerolled. Each
test prints one PASS/FAIL line (visible with -s, or in the captured output
on failure).
"""
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from bihazard import (BandComplement, BootstrapSpec, CensoredSample,
                      CensoringModel, FgmModel, FullSpace, Grid, GridProduct,
                      LowerLayer, LowerRect, MCConfig, QuantileTable, Raster,
                      SubjectRecord, at_risk, compensator_residual,
                      fgm_order_region, fgm_order_test, hazard_order_test,
                      independence_test, jump_masses, nelson_aalen,
                      nelson_aalen_surface, observable_core, rasterize,
                      simulate_sample, verify_clt, verify_glivenko)
from bihazard import estimators
from bihazard.cli import main
from bihazard.dominance import dominating_count_naive
from bihazard.util import DATA, PROBE, substream

_CFG = json.loads((Path(__file__).resolve().parent.parent
                   / "configs" / "acceptance.json").read_text())


def _report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {name}: {tag}{suffix}", flush=True)


def _assert_registered(got, registered, places):
    """got equals the outcome registered in configs/acceptance.json, to the given decimal places."""
    assert round(got, places) == round(registered, places), (got, registered)


def _rect_cm():
    lo = _CFG["censorRectangle"]["tauLow"]
    hi = _CFG["censorRectangle"]["tauHigh"]
    return CensoringModel("rectangle", {"tau1": QuantileTable.uniform(lo, hi),
                                        "tau2": QuantileTable.uniform(lo, hi)})


def _obs(point, censor=FullSpace()):
    return SubjectRecord(censor=censor, status="observed", point=point)


# ---------------------------------------------------------------------------
# direct-enumeration oracle (test-local transcription of the defining sums)
# ---------------------------------------------------------------------------

def _member_vec(region, pts):
    """Membership of each point, written per family from its set definition."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    x, y = pts[:, 0], pts[:, 1]
    if isinstance(region, LowerRect):
        return (x <= region.corner[0]) & (y <= region.corner[1])
    if isinstance(region, GridProduct):
        def union(v, ivs):
            hit = np.zeros(len(v), dtype=bool)
            for a, b in ivs:
                hit |= (a <= v) & (v <= b)
            return hit
        return union(x, region.x_intervals) & union(y, region.y_intervals)
    if isinstance(region, BandComplement):
        band = (region.k1 < x) & (x < region.k2) & (x < y) & (y < x + region.c)
        return ~band
    if isinstance(region, LowerLayer):
        hit = np.zeros(len(pts), dtype=bool)
        for cx, cy in region.corners:
            hit |= (x <= cx) & (y <= cy)
        return hit
    i = np.floor(x * region.m).astype(int)
    j = np.floor(y * region.m).astype(int)
    ok = (i < region.m) & (j < region.m)
    out = np.zeros(len(pts), dtype=bool)
    out[ok] = region.mask[i[ok], j[ok]]
    return out


def _random_region(rng, fam):
    if fam == "full":
        return FullSpace()
    if fam == "rectangle":
        return LowerRect(tuple(rng.uniform(0.3, 1.0, 2)))
    if fam == "grid_product":
        def ivs():
            b = float(rng.uniform(0.2, 0.5))
            lo2 = float(rng.uniform(b + 0.05, 0.9))
            return ((0.0, b), (lo2, float(rng.uniform(lo2, 1.0))))
        return GridProduct(ivs(), ivs())
    if fam == "band_complement":
        k1 = float(rng.uniform(0.1, 0.5))
        return BandComplement(k1, float(rng.uniform(k1, 0.9)),
                              float(rng.uniform(0.05, 0.3)))
    if fam == "lower_layer":
        x1 = float(rng.uniform(0.2, 0.5))
        return LowerLayer(((x1, float(rng.uniform(0.6, 1.0))),
                           (float(rng.uniform(x1 + 0.1, 1.0)),
                            float(rng.uniform(0.1, 0.5)))))
    m = int(rng.integers(2, 9))
    return Raster(m, rng.random((m, m)) < 0.7)


def _latent_records(rng, n, fam):
    pts = rng.random((n, 2))
    shared = None if fam == "rectangle" else _random_region(rng, fam)
    recs = []
    for k in range(n):
        reg = _random_region(rng, "rectangle") if fam == "rectangle" else shared
        p = (float(pts[k, 0]), float(pts[k, 1]))
        if _member_vec(reg, pts[k:k + 1])[0]:
            recs.append(SubjectRecord(censor=reg, status="observed", point=p))
        else:
            recs.append(SubjectRecord(censor=reg, status="censored_latent", latent=p))
    return recs


def _brute_at_risk(recs, queries):
    q = np.asarray(queries, dtype=float).reshape(-1, 2)
    z = np.zeros(len(q), dtype=np.int64)
    for rec in recs:
        y = rec.point if rec.status == "observed" else rec.latent
        dom = (y[0] >= q[:, 0]) & (y[1] >= q[:, 1])
        z += dom & _member_vec(rec.censor, q)
    return z


def _brute_hazard(recs, z_at_events, corner):
    total = 0.0
    i = 0
    for rec in recs:
        if rec.status != "observed":
            continue
        if rec.point[0] <= corner[0] and rec.point[1] <= corner[1]:
            total += 1.0 / z_at_events[i]
        i += 1
    return total


def test_criterion_01_estimator_matches_direct_enumeration():
    p = _CFG["exactChecks"]
    rng = np.random.default_rng(p["oracleSeed"])
    fams = ("full", "rectangle", "grid_product", "band_complement",
            "lower_layer", "raster")
    t0 = time.perf_counter()
    for i in range(p["oracleInstances"]):
        fam = fams[i % len(fams)]
        n = int(rng.integers(1, p["oracleMaxN"] + 1))
        recs = _latent_records(rng, n, fam)
        sample = CensoredSample(recs)
        free = rng.random((10, 2))
        queries = (np.vstack([free, sample.event_points])
                   if len(sample.event_points) else free)
        z_brute = _brute_at_risk(recs, queries)
        assert np.array_equal(at_risk(sample, queries), z_brute)
        ev_z = z_brute[len(free):]
        assert np.array_equal(jump_masses(sample), 1.0 / ev_z)
        for corner in (tuple(rng.random(2)), (1.0, 1.0)):
            lib = nelson_aalen(sample, LowerRect(corner))
            assert lib == _brute_hazard(recs, ev_z, corner)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    _report(1, "estimator equals direct enumeration", ok,
            f"{p['oracleInstances']} instances in {elapsed:.1f}s")
    assert ok


def test_criterion_02_worked_examples():
    s = CensoredSample([_obs((0.2, 0.3)), _obs((0.5, 0.6)), _obs((0.4, 0.1))])
    full = nelson_aalen(s, LowerRect((1.0, 1.0)))
    small = nelson_aalen(s, LowerRect((0.45, 0.65)))
    cens = CensoredSample([
        _obs((0.2, 0.3)),
        SubjectRecord(censor=LowerRect((0.45, 1.0)), status="censored_latent",
                      latent=(0.5, 0.6)),
        _obs((0.4, 0.1)),
    ])
    cfull = nelson_aalen(cens, LowerRect((1.0, 1.0)))
    ok = full == 2.0 and small == 1.0 and cfull == 1.0
    _report(2, "worked micro-examples", ok,
            f"full {full}, window {small}, censored {cfull}")
    assert ok


def test_criterion_03_observable_rule_equivalence():
    p = _CFG["exactChecks"]
    rng = np.random.default_rng(p["observableSeed"])
    grid = Grid(9, (1.0, 1.0))
    for _ in range(p["observableInstances"]):
        n = int(rng.integers(1, 101))
        ys = rng.random((n, 2))
        taus = rng.uniform(0.2, 1.0, (n, 2))
        latent, opaque = [], []
        for k in range(n):
            y, tau = ys[k], tuple(taus[k])
            reg = LowerRect(tau)
            if y[0] <= tau[0] and y[1] <= tau[1]:
                latent.append(SubjectRecord(censor=reg, status="observed",
                                            point=tuple(y)))
            else:
                latent.append(SubjectRecord(censor=reg, status="censored_latent",
                                            latent=tuple(y)))
            opaque.append(SubjectRecord(
                censor=reg, status="censored_opaque",
                minima=(min(y[0], tau[0]), min(y[1], tau[1])),
                events=(int(y[0] <= tau[0]), int(y[1] <= tau[1]))))
        a, b = CensoredSample(latent), CensoredSample(opaque)
        assert np.array_equal(a.event_points, b.event_points)
        assert np.array_equal(jump_masses(a), jump_masses(b))
        q = rng.random((12, 2))
        assert np.array_equal(at_risk(a, q), at_risk(b, q))
        for _ in range(3):
            corner = LowerRect(tuple(rng.random(2)))
            assert nelson_aalen(a, corner) == nelson_aalen(b, corner)
        if len(a.event_points):
            assert np.array_equal(nelson_aalen_surface(a, grid).values,
                                  nelson_aalen_surface(b, grid).values)
    _report(3, "minima-and-flags records equal latent records", True,
            f"{p['observableInstances']} instances")


def _brute_core(mask):
    m = mask.shape[0]
    out = np.zeros_like(mask)
    for i in range(m):
        for j in range(m):
            out[i, j] = mask[:i + 1, :].all() and mask[:, :j + 1].all()
    return out


def test_criterion_04_observable_core_matches_brute_force():
    p = _CFG["exactChecks"]
    rng = np.random.default_rng(p["coreSeed"])
    t0 = time.perf_counter()
    for i in range(p["coreInstances"]):
        m = int(rng.integers(1, p["coreMaxM"] + 1))
        density = rng.uniform(0.4, 1.0)
        mask = rng.random((m, m)) < density
        core = observable_core(Raster(m, mask))
        assert np.array_equal(core.mask, _brute_core(mask))
    # worked shapes: the L goes to its square, the square to nothing
    lshape = rasterize(LowerLayer(((0.5, 1.0), (1.0, 0.5))), 8)
    square = rasterize(LowerRect((0.5, 0.5)), 8)
    step1 = observable_core(lshape)
    assert np.array_equal(step1.mask, square.mask)
    step2 = observable_core(step1)
    assert not step2.mask.any()
    elapsed = time.perf_counter() - t0
    ok = elapsed < 5.0
    _report(4, "observable core equals brute-force wide-history check", ok,
            f"{p['coreInstances']} instances in {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# limit behavior
# ---------------------------------------------------------------------------

def test_criterion_05_mean_zero_compensator():
    p = _CFG["meanZeroCompensator"]
    model = FgmModel(p["theta"])
    cm = CensoringModel("full")
    region = LowerRect(tuple(p["corner"]))
    vals = np.array([
        compensator_residual(
            simulate_sample(model, cm, p["n"], substream(p["seed"], DATA, r)),
            model, region).value
        for r in range(p["replicates"])])
    mean = float(vals.mean())
    se = float(vals.std(ddof=1)) / math.sqrt(p["replicates"])
    ok = abs(mean) <= p["seBound"] * se
    _report(5, "compensated residual is mean zero", ok,
            f"mean {mean:.5f}, se {se:.5f}")
    assert ok
    _assert_registered(mean, p["registered"]["mean"], 5)
    _assert_registered(se, p["registered"]["se"], 5)


def test_criterion_06_clt_variance_and_normality():
    p = _CFG["cltVarianceNormality"]
    cfg = MCConfig(model=FgmModel(p["theta"]), censor_model=CensoringModel("full"),
                   n=p["n"], replicates=p["replicates"], seed=p["seed"])
    rep = verify_clt(cfg, [tuple(p["point"])], var_rtol=p["varRtol"],
                     ks_bound=p["ksBound"], checks=("variance", "normality"))
    detail = ", ".join(f"{r['name']} {r['value']:.5f}" for r in rep.rows)
    ok = rep.passed is True
    _report(6, "normal limit with the quadrature variance", ok, detail)
    assert ok
    variance, normality = rep.rows
    _assert_registered(variance["value"], p["registered"]["variance"], 5)
    _assert_registered(normality["value"], p["registered"]["ks"], 5)
    # the quadrature reference is recorded in full; a float sum order may move its last digits
    assert variance["reference"] == pytest.approx(p["registered"]["reference"], rel=1e-12, abs=0)


def test_criterion_07_censored_clt_mean():
    p = _CFG["censoredCltMean"]
    cfg = MCConfig(model=FgmModel(p["theta"]), censor_model=_rect_cm(),
                   n=p["n"], replicates=p["replicates"], seed=p["seed"])
    levels = p["checkpointLevels"]
    pts = [(x, y) for x in levels for y in levels]
    rep = verify_clt(cfg, pts, checks=("mean",))
    worst = max(abs(r["value"]) / r["se"] for r in rep.rows)
    ok = rep.passed is True
    _report(7, "censored estimator is centered at all checkpoints", ok,
            f"{len(pts)} checkpoints, worst |mean|/se {worst:.2f}")
    assert ok


def test_criterion_08_glivenko_ladder():
    p = _CFG["glivenkoLadder"]
    cfg = MCConfig(model=FgmModel(p["theta"]), censor_model=_rect_cm(),
                   replicates=p["replicates"], grid_size=p["gridSize"],
                   seed=p["seed"])
    rep = verify_glivenko(cfg, ladder=tuple(p["ladder"]), bound=p["bound"])
    meds = [r["value"] for r in rep.rows if r["name"].startswith("median_sup")]
    ok = rep.passed is True
    _report(8, "uniform at-risk convergence ladder", ok,
            "medians " + ", ".join(f"{v:.4f}" for v in meds))
    assert ok
    assert len(meds) == len(p["registered"]["medians"])
    for got, registered in zip(meds, p["registered"]["medians"]):
        _assert_registered(got, registered, 5)


# ---------------------------------------------------------------------------
# test calibration (size and power at pre-registered seeds)
# ---------------------------------------------------------------------------

def _independence_rate(seed, theta, n, b, r_total, grid_size, alpha):
    model = FgmModel(theta)
    cm = _rect_cm()
    rej = 0
    for r in range(r_total):
        rng = substream(seed, DATA, r)
        s = simulate_sample(model, cm, n, rng, form="latent")
        bs = int(substream(seed, PROBE, r).integers(2 ** 62))
        spec = BootstrapSpec(replicates=b, alpha=alpha, seed=bs,
                             grid_size=grid_size, workers=1)
        rej += independence_test(s, spec).reject
    return rej / r_total


@pytest.fixture(scope="module")
def independence_size_rate():
    p = _CFG["independenceSize"]
    return _independence_rate(p["seed"], p["theta"], p["n"], p["B"], p["R"],
                              p["gridSize"], p["alpha"])


def test_criterion_09_independence_size(independence_size_rate):
    p = _CFG["independenceSize"]
    lo, hi = p["band"]
    ok = lo <= independence_size_rate <= hi
    _report(9, "independence test holds its level", ok,
            f"rate {independence_size_rate:.3f} in [{lo}, {hi}]")
    assert ok
    _assert_registered(independence_size_rate, p["registered"]["rate"], 3)


def test_criterion_10_independence_power(independence_size_rate):
    p = _CFG["independencePower"]
    rate = _independence_rate(p["seed"], p["theta"], p["n"], p["B"], p["R"],
                              p["gridSize"], p["alpha"])
    floor_rate = independence_size_rate + p["margin"]
    ok = rate >= floor_rate
    _report(10, "independence test has power", ok,
            f"rate {rate:.3f} >= {floor_rate:.3f}")
    assert ok
    _assert_registered(rate, p["registered"]["rate"], 3)


def test_criterion_11_hazard_order_size():
    p = _CFG["hazardOrderSize"]
    model = FgmModel(p["theta"])
    cm = _rect_cm()
    rej = 0
    for r in range(p["R"]):
        rng = substream(p["seed"], DATA, r)
        sf = simulate_sample(model, cm, p["n"], rng, form="latent")
        sg = simulate_sample(model, cm, p["n"], rng, form="latent")
        bs = int(substream(p["seed"], PROBE, r).integers(2 ** 62))
        spec = BootstrapSpec(replicates=p["B"], alpha=p["alpha"], seed=bs,
                             grid_size=p["gridSize"], workers=1)
        rej += hazard_order_test(sf, sg, spec).reject
    rate = rej / p["R"]
    lo, hi = p["band"]
    ok = lo <= rate <= hi
    _report(11, "hazard-order test holds its level", ok,
            f"rate {rate:.3f} in [{lo}, {hi}]")
    assert ok
    _assert_registered(rate, p["registered"]["rate"], 3)


def _fgm_rate(seed, th1, th2, p):
    cm = CensoringModel("full")
    m1, m2 = FgmModel(th1), FgmModel(th2)
    tau = tuple(p["tau"])
    rej = 0
    for r in range(p["R"]):
        rng = substream(seed, DATA, r)
        s1 = simulate_sample(m1, cm, p["n"], rng, form="latent")
        s2 = simulate_sample(m2, cm, p["n"], rng, form="latent")
        bs = int(substream(seed, PROBE, r).integers(2 ** 62))
        spec = BootstrapSpec(replicates=p["B"], alpha=p["alpha"], seed=bs,
                             grid_size=p["gridSize"], workers=1)
        rej += fgm_order_test(s1, s2, tau, spec, True).reject
    return rej / p["R"]


@pytest.fixture(scope="module")
def fgm_size_rate():
    p = _CFG["fgmOrder"]
    return _fgm_rate(p["sizeSeed"], p["sizeTheta"][0], p["sizeTheta"][1], p)


def test_criterion_12_fgm_order(fgm_size_rate):
    p = _CFG["fgmOrder"]
    # part 1: the order region is exactly the cross-multiplied hazard inequality
    g = (np.arange(p["signGrid"]) + 0.5) / p["signGrid"]
    u, v = np.meshgrid(g, g, indexing="ij")
    signs_ok = True
    for a, b in p["signPairs"]:
        dens_a = 1.0 + a * (1 - 2 * u) * (1 - 2 * v)
        dens_b = 1.0 + b * (1 - 2 * u) * (1 - 2 * v)
        surv_a = 1.0 - u - v + u * v * (1 + a * (1 - u) * (1 - v))
        surv_b = 1.0 - u - v + u * v * (1 + b * (1 - u) * (1 - v))
        expr = dens_b * surv_a - dens_a * surv_b
        defined = np.abs(expr) > p["signBoundary"]
        signs_ok &= bool(np.all(((expr > 0) == fgm_order_region(u, v))[defined]))
    # parts 2 and 3: size within the band, power above size plus the margin
    lo, hi = p["band"]
    size_ok = lo <= fgm_size_rate <= hi
    power = _fgm_rate(p["powerSeed"], p["powerTheta"][0], p["powerTheta"][1], p)
    power_ok = power >= fgm_size_rate + p["powerMargin"]
    ok = signs_ok and size_ok and power_ok
    _report(12, "copula-order region, level, and power", ok,
            f"signs {signs_ok}, size {fgm_size_rate:.3f}, power {power:.3f}")
    assert ok
    _assert_registered(fgm_size_rate, p["registered"]["sizeRate"], 3)
    _assert_registered(power, p["registered"]["powerRate"], 3)


def test_criterion_13_single_subject_identity():
    p = _CFG["exactChecks"]
    rng = np.random.default_rng(p["singleSubjectSeed"])
    spec = BootstrapSpec(replicates=3, alpha=0.05, seed=1, grid_size=8)
    gp = GridProduct(((0.0, 0.3), (0.5, 1.0)), ((0.0, 0.4), (0.6, 1.0)))
    for i in range(p["singleSubjectInstances"]):
        kind = i % 4
        if kind == 0:
            rec = _obs(tuple(rng.random(2)))
        elif kind == 1:
            tau = tuple(rng.uniform(0.4, 1.0, 2))
            rec = _obs((float(rng.uniform(0, tau[0])),
                        float(rng.uniform(0, tau[1]))), LowerRect(tau))
        elif kind == 2:
            tau = tuple(rng.uniform(0.4, 1.0, 2))
            rec = SubjectRecord(censor=LowerRect(tau), status="censored_opaque",
                                minima=(float(rng.uniform(0, tau[0])),
                                        float(rng.uniform(0, tau[1]))),
                                events=(1, 1))
        else:
            rec = _obs((float(rng.uniform(0.5, 1.0)), float(rng.uniform(0.0, 0.4))), gp)
        rep = independence_test(CensoredSample([rec]), spec)
        assert rep.statistic == 0.0
    _report(13, "single-subject independence statistic is zero", True,
            f"{p['singleSubjectInstances']} instances")


def test_criterion_14_performance_and_fast_path_identity(monkeypatch):
    p = _CFG["performance"]
    cm = _rect_cm()
    sample = simulate_sample(FgmModel(0.4), cm, p["n"],
                             np.random.default_rng(p["seed"]), form="observable")
    grid = Grid(p["gridSize"], (1.0, 1.0))
    t0 = time.perf_counter()
    surf = nelson_aalen_surface(sample, grid)
    elapsed = time.perf_counter() - t0
    budget_ok = elapsed < p["budgetSeconds"] and np.isfinite(surf.values).all()

    pe = _CFG["exactChecks"]
    rng = np.random.default_rng(pe["identitySeed"])
    ident_ok = True
    for _ in range(pe["identityInstances"]):
        n = int(rng.integers(1, pe["identityMaxN"] + 1))
        s = simulate_sample(FgmModel(0.2), cm, n, rng, form="observable")
        a = nelson_aalen_surface(s, Grid(17, (1.0, 1.0)))
        # the same fit on a fresh copy, every at-risk count by the quadratic reference scan
        with monkeypatch.context() as m:
            m.setattr(estimators, "dominating_count", dominating_count_naive)
            b = nelson_aalen_surface(s.take(np.arange(s.n)), Grid(17, (1.0, 1.0)))
        ident_ok &= (np.array_equal(a.values, b.values)
                     and np.array_equal(a.jump_masses, b.jump_masses))
    ok = budget_ok and ident_ok
    _report(14, "large-sample speed and fast-path bit identity", ok,
            f"n={p['n']} surface in {elapsed:.2f}s, identity {ident_ok}")
    assert ok


def test_criterion_15_cli_thread_determinism(tmp_path):
    p = _CFG["determinism"]
    t1, t2 = p["threads"]
    seed = p["seed"]
    rect = {"family": "rectangle",
            "tau1": {"kind": "uniform", "low": 0.7, "high": 1.0},
            "tau2": {"kind": "uniform", "low": 0.7, "high": 1.0}}

    def run(cmd, cfg, extra, outdir, threads):
        path = tmp_path / f"{cmd}.json"
        path.write_text(json.dumps(cfg))
        code = main([cmd, "--config", str(path), "--out", str(outdir),
                     "--threads", str(threads)] + extra)
        assert code == 0

    ok = True
    sim_cfg = {"masterSeed": seed, "n": 60, "model": {"theta": 0.5},
               "censorModel": rect}
    run("simulate", sim_cfg, [], tmp_path / "sim1", t1)
    run("simulate", sim_cfg, [], tmp_path / "sim2", t2)
    data = tmp_path / "sim1" / "dataset.jsonl"
    ok &= data.read_bytes() == (tmp_path / "sim2" / "dataset.jsonl").read_bytes()

    test_cfg = {"masterSeed": seed, "test": "independence",
                "bootstrap": {"B": 25, "gridSize": 8}, "replicateDump": True}
    run("test", test_cfg, ["--data", str(data)], tmp_path / "t1", t1)
    run("test", test_cfg, ["--data", str(data)], tmp_path / "t2", t2)
    for name in ("test_report.json", "replicates.csv"):
        ok &= ((tmp_path / "t1" / name).read_bytes()
               == (tmp_path / "t2" / name).read_bytes())

    mc_cfg = {"masterSeed": seed, "experiment": "size_power",
              "model": {"theta": 0.0}, "censorModel": {"family": "full"},
              "replicates": 3,
              "scenarios": [{"name": "s", "test": "independence", "n": 25,
                             "B": 9, "gridSize": 6}]}
    run("mc", mc_cfg, [], tmp_path / "mc1", t1)
    run("mc", mc_cfg, [], tmp_path / "mc2", t2)
    for name in ("mc_report.json", "mc_report.csv"):
        ok &= ((tmp_path / "mc1" / name).read_bytes()
               == (tmp_path / "mc2" / name).read_bytes())

    _report(15, "reports are byte-identical across thread counts", ok)
    assert ok
