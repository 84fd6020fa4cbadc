"""Hand-worked micro-examples for the benchmark's oracle and tracer.

    python3 -m pytest bench/tests -q
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import oracle as orc  # noqa: E402
import tracing  # noqa: E402

FULL = {"kind": "full"}


def obs(x, y, censor=FULL):
    return {"censor": censor, "status": "observed", "point": [x, y]}


def rect(t1, t2):
    return {"kind": "rectangle", "tau": [t1, t2]}


# three uncensored points a=(0.2,0.3), b=(0.5,0.6), c=(0.4,0.1)
WORKED = [obs(0.2, 0.3), obs(0.5, 0.6), obs(0.4, 0.1)]

# r1 observed inside [0,(0.5,0.5)]; r2 latent (0.6,0.7) outside [0,(0.5,0.9)];
# r3 opaque: minima (0.4,0.45) with flags (1,0) under [0,(0.8,0.45)]
CENSORED = [
    obs(0.2, 0.3, rect(0.5, 0.5)),
    {"censor": rect(0.5, 0.9), "status": "censored_latent", "latent": [0.6, 0.7]},
    {"censor": rect(0.8, 0.45), "status": "censored_opaque", "min": [0.4, 0.45], "delta": [1, 0]},
]


def test_uncensored_at_risk_masses_and_surface():
    recs = orc.Records(WORKED)
    # Z(a): a and b dominate a; Z(b): b alone; Z(c): b and c
    ev, z, m = orc.jump_masses(recs)
    assert ev.tolist() == [[0.2, 0.3], [0.5, 0.6], [0.4, 0.1]]
    assert z.tolist() == [2, 1, 2]
    assert m.tolist() == [0.5, 1.0, 0.5]
    # node (0.45, 0.35) lies above a and c only; the full square holds all three masses
    h = orc.surface(ev, m, [0.45, 1.0], [0.35, 1.0])
    assert h.tolist() == [[1.0, 1.0], [1.0, 2.0]]


def test_uncensored_marginal_and_kaplan_meier():
    mo = orc.Marginal(orc.Records(WORKED), 0)
    assert mo.values.tolist() == [0.2, 0.4, 0.5]
    assert mo.at_risk.tolist() == [3, 2, 1]
    assert mo.jumps.tolist() == [1 / 3, 1 / 2, 1.0]
    assert mo.cum_hazard([0.1, 0.45]).tolist() == [0.0, 1 / 3 + 1 / 2]
    assert np.allclose(mo.kaplan_meier(), [1 / 3, 2 / 3, 1.0], rtol=0, atol=1e-15)
    x, ok = mo.km_quantiles([0.5, 1.0])
    assert x.tolist() == [0.4, 0.5] and ok.tolist() == [True, True]


def test_rectangle_censoring_with_latent_and_opaque_records():
    recs = orc.Records(CENSORED)
    # at (0.2,0.3) all three count (r3 through its minima); at (0.45,0.2) only r2;
    # at (0.55,0.2) nobody, since r2's rectangle ends at 0.5
    assert orc.at_risk(recs, [[0.2, 0.3], [0.45, 0.2], [0.55, 0.2]]).tolist() == [3, 1, 0]
    ev, z, m = orc.jump_masses(recs)
    assert ev.tolist() == [[0.2, 0.3]] and z.tolist() == [3]
    # axis 2: r1 (0.3) and r2 (0.7, inside [0,0.9]) are events, r3's flag is 0
    m1 = orc.Marginal(recs, 1)
    assert m1.values.tolist() == [0.3, 0.7] and m1.at_risk.tolist() == [3, 1]
    # axis 1: r1 (0.2) and r3 (0.4) are events; r2's 0.6 exceeds its 0.5
    m0 = orc.Marginal(recs, 0)
    assert m0.values.tolist() == [0.2, 0.4] and m0.at_risk.tolist() == [3, 2]
    assert np.allclose(m0.kaplan_meier(), [1 / 3, 2 / 3], rtol=0, atol=1e-15)
    x, ok = m0.km_quantiles([0.5, 0.9])
    assert x.tolist() == [0.4, 2.0] and ok.tolist() == [True, False]


def test_region_families():
    band = {"kind": "band_complement", "k1": 0.2, "k2": 0.6, "c": 0.1}
    assert orc.region_contains(band, [[0.3, 0.35], [0.3, 0.45], [0.2, 0.25]]).tolist() == [False, True, True]
    grid = {"kind": "grid_product", "x": [[0.0, 0.3], [0.5, 1.0]], "y": [[0.0, 0.4], [0.6, 1.0]]}
    assert orc.region_contains(grid, [[0.4, 0.2], [0.3, 0.4], [0.7, 0.5]]).tolist() == [False, True, False]
    layer = {"kind": "lower_layer", "corners": [[0.5, 1.0], [1.0, 0.5]]}
    assert orc.region_contains(layer, [[0.7, 0.6], [0.7, 0.5], [0.5, 1.0]]).tolist() == [False, True, True]
    assert orc.axis_intervals(band, 1) == [(0.0, 0.2), (0.7, 1.0)]
    assert orc.axis_intervals(dict(band, k2=0.95), 1) == [(0.0, 0.2)]
    assert orc.axis_intervals(layer, 0) == [(0.0, 1.0)]


def test_band_at_risk_per_record_parameters():
    recs = orc.Records([
        {"censor": {"kind": "band_complement", "k1": 0.2, "k2": 0.6, "c": 0.1},
         "status": "censored_latent", "latent": [0.9, 0.9]},
        {"censor": {"kind": "band_complement", "k1": 0.5, "k2": 0.7, "c": 0.1},
         "status": "censored_latent", "latent": [0.9, 0.9]},
    ])
    # (0.3,0.35) is inside the first record's band only
    assert orc.at_risk(recs, [[0.3, 0.35], [0.3, 0.45]]).tolist() == [1, 2]


def test_resample_and_pool():
    recs = orc.Records(WORKED)
    both = recs.concat(orc.Records(CENSORED))
    assert both.n == 6 and both.take([0, 0, 3]).point.tolist() == [[0.2, 0.3]] * 3
    assert orc.at_risk(recs.take([1, 1]), [[0.5, 0.6]]).tolist() == [2]


def test_fgm_hazard_integral():
    # theta = 0: c/Cbar = 1/((1-u)(1-v)), so the integral is log(1-a) log(1-b)
    want = math.log(0.5) * math.log(0.4)
    assert orc.fgm_hazard_integral(0.0, (0.5, 0.6)) == pytest.approx(want, rel=1e-6)
    fine = orc.fgm_hazard_integral(0.3, (0.8, 0.8), k=8000)
    assert orc.fgm_hazard_integral(0.3, (0.8, 0.8)) == pytest.approx(fine, rel=1e-6)
    assert orc.fgm_order_region(np.array([0.0, 0.5]), np.array([0.0, 0.5])).tolist() == [True, False]


def test_self_time_excludes_union_of_children():
    spans = [(1, 0, "p", 0, 100, 1), (2, 1, "c", 10, 30, 1), (3, 1, "c", 20, 50, 2),
             (4, 1, "c", 60, 70, 1)]
    rows = tracing.summarize(spans)
    assert rows["p"]["calls"] == 1 and rows["p"]["self_s"] == pytest.approx(50e-9)
    assert rows["c"]["calls"] == 3 and rows["c"]["self_s"] == pytest.approx(60e-9)


def test_tracer_records_nested_spans_and_restores_functions():
    sys.path.insert(0, str(BENCH.parent / "src"))
    import bihazard.estimators as est
    from bihazard import FullSpace, Grid, SubjectRecord

    original = est.jump_masses
    sample = est.CensoredSample([SubjectRecord(censor=FullSpace(), status="observed", point=p)
                                 for p in ((0.2, 0.3), (0.5, 0.6), (0.4, 0.1))])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        surf = est.nelson_aalen_surface(sample, Grid(3))
    finally:
        tracer.uninstall()
    assert est.jump_masses is original
    assert surf.values[-1, -1] == 2.0
    snap = tracer.snapshot()
    by_name = {s[2]: s for s in snap["spans"]}
    assert by_name["estimators.jump_masses"][1] == by_name["estimators.nelson_aalen_surface"][0]
    assert by_name["dominance.dominating_count"][1] == by_name["estimators.jump_masses"][0]
    assert snap["counts"]["dominance.queries"] == 3
